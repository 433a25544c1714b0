//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <corpus-cold|serve-edit|serve-restart> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload end to end; with
//! `--trace 1` it replays the workload's inputs through each layer's public
//! entry points and reports per-layer numbers instead. Either way every
//! output is checked, a human-readable report goes to standard error, and
//! the last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{"name":{"value":…,"unit":"…"},…}}`.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use perfbench::gen::{self, CorpusProgram, Request, RequestKind};
use perfbench::stages::{self, Counters, StageTimes};
use perfbench::stats::{quantile, spearman};
use serde_json::Value;
use tnt_infer::{AnalysisResult, AnalysisSession, InferOptions, SessionStats, Verdict};
use tnt_serve::Server;
use tnt_store::SummaryStore;
use tnt_suite::Expected;

/// A set-up burst repeats the set-up at least [`SETUP_REPS`] times, and
/// until the repetitions add up to [`SETUP_MIN_S`] (at most
/// [`SETUP_MAX_REPS`] times).
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;
const SETUP_MAX_REPS: usize = 200;
/// Set-up bursts per run: one before the first pass, then one whenever
/// another such share of `--seconds` has gone by.
const SETUP_BURSTS: usize = 5;

/// Set-up times of a run, taken in bursts spread over it. `setup_s` is the
/// 10th percentile of all the repetitions. A burst of a cheap set-up lasts
/// well under a second, so it falls wholly into whatever phase the shared
/// machine is in, and a sub-millisecond set-up runs up to a third slower
/// after some passes than after others. Spreading the bursts out lets a run
/// find a quiet phase, as the best times of the passes do, and the low
/// percentile reads it without resting on one lucky repetition.
struct Setup {
    start: Instant,
    seconds: f64,
    bursts: usize,
    times: Vec<f64>,
}

impl Setup {
    /// Times the first burst of `setup` and returns its last result.
    fn first<T>(seconds: f64, setup: impl FnMut() -> T) -> (Setup, T) {
        let mut this = Setup {
            start: Instant::now(),
            seconds,
            bursts: 0,
            times: Vec::new(),
        };
        let result = this.burst(setup);
        (this, result)
    }

    /// Times a burst of `setup` if the next one is due; call it before each
    /// pass.
    fn between_passes<T>(&mut self, setup: impl FnMut() -> T) {
        let due = self.bursts as f64 * self.seconds / SETUP_BURSTS as f64;
        if self.bursts < SETUP_BURSTS && self.start.elapsed().as_secs_f64() >= due {
            self.burst(setup);
        }
    }

    fn burst<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        self.bursts += 1;
        let (mut reps, mut total) = (0, 0.0);
        loop {
            let began = Instant::now();
            let result = setup();
            let took = began.elapsed().as_secs_f64();
            self.times.push(took);
            reps += 1;
            total += took;
            if reps >= SETUP_REPS && (total >= SETUP_MIN_S || reps >= SETUP_MAX_REPS) {
                return result;
            }
        }
    }

    fn setup_s(&self) -> f64 {
        quantile(&self.times, 0.1)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Outcome of the correctness oracle: every checked operation, and a note
/// for each one that failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(note) = outcome {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(note);
            }
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    checks: Checks,
    metrics: Vec<Metric>,
}

impl Report {
    fn new(checks: Checks) -> Report {
        Report {
            checks,
            metrics: Vec::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; an undefined value reads 0.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(",")
        )
    }
}

/// Per-run scratch directories for summary stores, under `.perfbench_tmp/`
/// in the working directory; removed when the run ends.
struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let root = Path::new(".perfbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(self.next.to_string())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave the parent only if another run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// A scratch directory that is removed when dropped, so that set-up
/// repetitions do not pile up entries in one parent directory.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut scratch = match Scratch::new() {
        Ok(scratch) => scratch,
        Err(err) => {
            eprintln!("perfbench: cannot create scratch directory: {err}");
            return ExitCode::from(2);
        }
    };
    let options = InferOptions::default();
    let report = match (args.workload.as_str(), args.trace) {
        ("corpus-cold", false) => corpus_cold(&args, &options),
        ("serve-edit", false) => serve_edit(&args, &options, &mut scratch),
        ("serve-restart", false) => serve_restart(&args, &options, &mut scratch),
        (workload @ ("corpus-cold" | "serve-edit" | "serve-restart"), true) => {
            traced(workload, &args, &options, &mut scratch)
        }
        (other, _) => {
            eprintln!(
                "perfbench: unknown workload {other:?} (corpus-cold, serve-edit, serve-restart)"
            );
            return ExitCode::from(2);
        }
    };
    for note in &report.checks.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    eprintln!(
        "perfbench: {} on seed {}: {} checks, {} failed, {} worker(s) of {} available",
        args.workload,
        args.seed,
        report.checks.attempted,
        report.checks.failed,
        workers(),
        available_parallelism()
    );
    for m in &report.metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads the batch and the oracle use: the machine's cores, at most two,
/// so runs on bigger machines stay comparable.
fn workers() -> usize {
    available_parallelism().min(2)
}

/// Calls `pass` with 0, 1, 2, … until about `seconds` have elapsed: a new
/// pass starts only if, at the length of the last one, it would end less
/// than half a pass past the deadline. At least one pass runs.
fn repeat_for(seconds: f64, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut n = 0;
    loop {
        let began = Instant::now();
        pass(n);
        n += 1;
        let last = began.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last / 2.0 > seconds {
            break;
        }
    }
}

/// Starts a new peak-memory window: resets `VmHWM` to the current resident
/// set (Linux 4.0 and later; elsewhere the peak keeps growing).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn verdict_code(result: &AnalysisResult) -> &'static str {
    match result.program_verdict() {
        Verdict::Terminating => "Y",
        Verdict::NonTerminating => "N",
        Verdict::Unknown if result.stats.budget_exhausted => "T/O",
        Verdict::Unknown => "U",
    }
}

/// `Err` when `verdict` contradicts the ground truth.
fn soundness(verdict: Option<Verdict>, expected: Expected, what: &str) -> Result<(), String> {
    match (verdict, expected) {
        (Some(Verdict::Terminating), Expected::NonTerminating)
        | (Some(Verdict::NonTerminating), Expected::Terminating) => Err(format!(
            "{what}: unsound verdict {verdict:?} on a {expected} program"
        )),
        _ => Ok(()),
    }
}

/// A serve request line for `source`.
fn request_line(id: usize, source: &str) -> String {
    let mut line = format!("{{\"id\":{id},\"source\":\"");
    serde_json::json_escape_into(source, &mut line);
    line.push_str("\"}");
    line
}

/// A fresh analysis of one source, as the oracle compares responses with it.
struct Reference {
    result: AnalysisResult,
    rendered: BTreeMap<String, String>,
}

/// Reference answers by source text.
type Oracle = HashMap<String, Result<Reference, String>>;

fn reference(result: Result<AnalysisResult, String>) -> Result<Reference, String> {
    result.map(|result| Reference {
        rendered: stages::render(&result),
        result,
    })
}

/// Fresh `analyze_source` results for `sources`, computed on [`workers`]
/// threads: the oracle's reference answers.
fn references(sources: &[&str], options: &InferOptions) -> Oracle {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..workers() {
            scope.spawn(|| loop {
                let Some(&source) = sources.get(next.fetch_add(1, Ordering::Relaxed)) else {
                    return;
                };
                let result = reference(stages::reference(source, options));
                out.lock()
                    .expect("no reference thread panics while holding the map")
                    .insert(source.to_string(), result);
            });
        }
    });
    out.into_inner().expect("reference threads joined")
}

/// Distinct sources in first-occurrence order.
fn distinct<'a>(sources: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    let mut seen = std::collections::HashSet::new();
    sources.into_iter().filter(|s| seen.insert(*s)).collect()
}

/// Checks one serve response against the reference analysis of its source:
/// status, verdict, byte-identical rendered summaries and `work`, the
/// expected cache tier, and per-method soundness against the labels.
/// Returns whether the verdict is decided (`Y` or `N`).
fn check_response(
    response: &str,
    reference: &Result<Reference, String>,
    labels: &[(String, Expected)],
    tier: Option<&str>,
) -> Result<bool, String> {
    let Reference {
        result: reference,
        rendered,
    } = reference
        .as_ref()
        .map_err(|e| format!("reference analysis failed: {e}"))?;
    let parsed: Value =
        serde_json::from_str(response).map_err(|e| format!("response is not JSON: {e}"))?;
    if parsed.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!("error response: {response}"));
    }
    let verdict = parsed.get("verdict").and_then(Value::as_str).unwrap_or("");
    if verdict != verdict_code(reference) {
        return Err(format!(
            "verdict {verdict} differs from a fresh analysis ({})",
            verdict_code(reference)
        ));
    }
    let served: BTreeMap<String, String> = parsed
        .get("summaries")
        .and_then(Value::as_object)
        .map(|map| {
            map.iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_string()))
                .collect()
        })
        .unwrap_or_default();
    if served != *rendered {
        return Err("summaries differ from a fresh analysis of the same text".into());
    }
    let work = parsed.get("work").and_then(Value::as_f64);
    if work != Some(reference.stats.work as f64) {
        return Err(format!(
            "work {work:?} differs from a fresh analysis ({})",
            reference.stats.work
        ));
    }
    let served_tier = parsed.get("tier").and_then(Value::as_str);
    if served_tier != tier {
        return Err(format!(
            "served from tier {served_tier:?}, expected {tier:?}"
        ));
    }
    for (method, expected) in labels {
        soundness(reference.verdict(method), *expected, method)?;
    }
    Ok(matches!(verdict, "Y" | "N"))
}

/// Each timed operation's best time over the passes of a run. Every pass
/// repeats the same operations, and the rest of a shared machine only ever
/// adds time to them, by 30–70% for seconds to minutes at a time. So an
/// operation's best time is the steadiest estimate of its own cost.
/// `p50_ms` and `p90_ms` are quantiles of the best times of the latency
/// operations. `peak_rss_mb` is the lower quartile of the passes' own
/// peaks. On corpus-cold a pass's peak depends on which analyses its order
/// runs side by side and on how the allocator's arenas fall: most passes
/// peak at about 410–415 MiB, the others anywhere up to 545 MiB. So the
/// median or the highest of a run's six passes jumped between clusters by
/// a tenth or more from run to run, while the lower quartile read the base
/// cluster. On the serve workloads, memory the set-up or the oracle left
/// with the allocator lifts the peaks of the passes after it.
#[derive(Default)]
struct Best {
    passes: usize,
    /// Best time and whether it is a latency operation, by operation.
    ops_ms: HashMap<usize, (f64, bool)>,
    peaks_mb: Vec<f64>,
}

impl Best {
    fn begin_pass(&mut self) {
        reset_peak_rss();
    }

    fn end_pass(&mut self) {
        self.passes += 1;
        self.peaks_mb.push(peak_rss_mb());
    }

    /// Records one time of operation `op`.
    fn op(&mut self, op: usize, ms: f64, latency: bool) {
        let best = self.ops_ms.entry(op).or_insert((ms, latency));
        best.0 = best.0.min(ms);
    }

    /// Puts the metrics; `pass_s` is `None` for a pass made of the timed
    /// operations one after another, whose time is then the sum of their
    /// best times.
    fn put(&self, report: &mut Report, setup: &Setup, pass_s: Option<f64>) {
        let latencies: Vec<f64> = self
            .ops_ms
            .values()
            .filter(|(_, latency)| *latency)
            .map(|(ms, _)| *ms)
            .collect();
        let pass_s =
            pass_s.unwrap_or_else(|| self.ops_ms.values().map(|(ms, _)| ms).sum::<f64>() / 1e3);
        report.put("setup_s", setup.setup_s(), "s");
        report.put("pass_s", pass_s, "s");
        report.put("p50_ms", quantile(&latencies, 0.5), "ms");
        report.put("p90_ms", quantile(&latencies, 0.9), "ms");
        report.put("peak_rss_mb", quantile(&self.peaks_mb, 0.25), "MiB");
    }

    fn describe(&self) -> String {
        let peaks = [0.0, 0.25, 0.5, 0.75, 1.0].map(|q| quantile(&self.peaks_mb, q));
        format!(
            "{} passes, {} timed operations; pass peaks {peaks:.1?} MiB (min, quartiles, max)",
            self.passes,
            self.ops_ms.len()
        )
    }
}

fn put_shares(report: &mut Report, decided: u64, responses: u64) {
    let checks = &report.checks;
    let ok_share = (checks.attempted - checks.failed) as f64 / checks.attempted as f64;
    report.put("decided_share", decided as f64 / responses as f64, "share");
    report.put("ok_share", ok_share, "share");
}

// ----------------------------------------------------------------- corpus-cold

/// The five corpora through one fresh session's batch on [`workers`]
/// threads, no store; each pass submits them in another seeded order. The
/// timed operations are the fresh analyses of the unique programs.
fn corpus_cold(args: &Args, options: &InferOptions) -> Report {
    let mut checks = Checks::default();
    let mut best = Best::default();
    let mut passes = Vec::new();
    let unique: HashMap<String, usize> = distinct(gen::corpus().iter().map(|p| p.source.as_str()))
        .into_iter()
        .enumerate()
        .map(|(id, source)| (source.to_string(), id))
        .collect();
    let (mut decided, mut responses) = (0u64, 0u64);
    let prepare = |pass: usize| {
        let corpus = gen::corpus();
        let order = gen::corpus_order(args.seed, pass as u64);
        (corpus, order, AnalysisSession::new(*options))
    };
    let (mut setup, _) = Setup::first(args.seconds, || prepare(0));
    repeat_for(args.seconds, |pass| {
        setup.between_passes(|| prepare(pass));
        best.begin_pass();
        let (corpus, order, session) = prepare(pass);
        let sources: Vec<&str> = order.iter().map(|&i| corpus[i].source.as_str()).collect();
        let began = Instant::now();
        let entries = session.analyze_batch_with(&sources, workers());
        passes.push(began.elapsed().as_secs_f64());
        best.end_pass();

        for (entry, &i) in entries.iter().zip(&order) {
            let program = &corpus[i];
            let outcome = match &entry.result {
                Ok(result) => {
                    if entry.tier.is_none() {
                        best.op(unique[&program.source], entry.elapsed * 1e3, true);
                    }
                    responses += 1;
                    let verdict = result.program_verdict();
                    decided += u64::from(verdict != Verdict::Unknown);
                    soundness(Some(verdict), program.expected, &program.name)
                }
                Err(err) => Err(format!("{}: {err}", program.name)),
            };
            checks.record(outcome);
        }
    });
    eprintln!(
        "perfbench: cold batches over {} programs: {}",
        gen::corpus().len(),
        best.describe()
    );
    let mut report = Report::new(checks);
    best.put(&mut report, &setup, Some(quantile(&passes, 0.0)));
    put_shares(&mut report, decided, responses);
    report
}

// ------------------------------------------------------------------ serve-edit

/// A server over a fresh summary store in its own scratch directory.
fn fresh_server(options: &InferOptions, dir: &Path) -> Server {
    let store = SummaryStore::open(dir).expect("scratch store opens");
    Server::new(*options).with_store(Arc::new(store))
}

/// The tier each request of a stream must be served from by a fresh server:
/// the memory tier for a text sent before (a re-send, or an edit back to an
/// earlier version), a fresh analysis otherwise.
fn stream_tiers(stream: &[Request]) -> Vec<Option<&'static str>> {
    let mut sent = std::collections::HashSet::new();
    stream
        .iter()
        .map(|r| (!sent.insert(r.source.as_str())).then_some("memory"))
        .collect()
}

/// One closed-loop client sends the seeded edit stream to an in-process
/// server with a summary store; each pass uses a fresh server and store.
fn serve_edit(args: &Args, options: &InferOptions, scratch: &mut Scratch) -> Report {
    let mut prepare = || {
        let stream = gen::edit_stream(args.seed);
        let lines: Vec<String> = stream
            .iter()
            .enumerate()
            .map(|(id, r)| request_line(id, &r.source))
            .collect();
        let dir = TempDir(scratch.fresh_dir());
        let server = fresh_server(options, &dir.0);
        (stream, lines, server, dir)
    };
    let (mut setup, (stream, ..)) = Setup::first(args.seconds, &mut prepare);
    let tiers = stream_tiers(&stream);
    let oracle = references(&distinct(stream.iter().map(|r| r.source.as_str())), options);

    let mut checks = Checks::default();
    let mut best = Best::default();
    let (mut decided, mut responses) = (0u64, 0u64);
    let mut method_hits = 0u64;
    repeat_for(args.seconds, |_| {
        setup.between_passes(&mut prepare);
        best.begin_pass();
        let (stream, lines, server, _dir) = prepare();
        for (id, ((request, line), tier)) in stream.iter().zip(&lines).zip(&tiers).enumerate() {
            let began = Instant::now();
            let response = server.handle_line(line);
            let took = began.elapsed().as_secs_f64();
            best.op(id, took * 1e3, request.kind == RequestKind::Edit);
            let outcome =
                check_response(&response, &oracle[&request.source], &request.labels, *tier);
            responses += 1;
            decided += u64::from(matches!(outcome, Ok(true)));
            checks.record(outcome.map(|_| ()));
        }
        best.end_pass();
        method_hits = server.stats().method_hits;
        for note in server.take_diagnostics() {
            checks.record(Err(format!("store diagnostic: {note}")));
        }
    });
    eprintln!(
        "perfbench: {}-request edit streams: {}; {} method hits per pass",
        stream.len(),
        best.describe(),
        method_hits
    );
    let mut report = Report::new(checks);
    best.put(&mut report, &setup, None);
    put_shares(&mut report, decided, responses);
    report
}

// --------------------------------------------------------------- serve-restart

/// Pre-fills a summary store in a fresh scratch directory with the sample,
/// through a server that is then shut down. Returns the directory.
fn prefill(sample: &[CorpusProgram], options: &InferOptions, scratch: &mut Scratch) -> PathBuf {
    let dir = scratch.fresh_dir();
    let server = fresh_server(options, &dir);
    for (id, program) in sample.iter().enumerate() {
        server.handle_line(&request_line(id, &program.source));
    }
    dir
}

/// Restarts a server over a pre-filled store and replays the seeded mix,
/// again and again: every first request of a program is a store read.
fn serve_restart(args: &Args, options: &InferOptions, scratch: &mut Scratch) -> Report {
    let (mut setup, dir) = Setup::first(args.seconds, || {
        prefill(&gen::restart_sample(args.seed), options, scratch)
    });
    let sample = gen::restart_sample(args.seed);
    let mix = gen::restart_mix(args.seed, sample.len());
    let lines: Vec<String> = mix
        .iter()
        .enumerate()
        .map(|(id, &i)| request_line(id, &sample[i].source))
        .collect();
    let oracle = references(&distinct(sample.iter().map(|p| p.source.as_str())), options);

    let mut checks = Checks::default();
    let mut best = Best::default();
    let (mut decided, mut responses) = (0u64, 0u64);
    repeat_for(args.seconds, |_| {
        setup.between_passes(|| prefill(&gen::restart_sample(args.seed), options, scratch));
        best.begin_pass();
        let began = Instant::now();
        let store = SummaryStore::open(&dir).expect("pre-filled store opens");
        let server = Server::new(*options).with_store(Arc::new(store));
        best.op(mix.len(), began.elapsed().as_secs_f64() * 1e3, false);
        let mut seen = vec![false; sample.len()];
        for (id, (&i, line)) in mix.iter().zip(&lines).enumerate() {
            let began = Instant::now();
            let response = server.handle_line(line);
            let took = began.elapsed().as_secs_f64();
            let tier = if seen[i] { "memory" } else { "store" };
            best.op(id, took * 1e3, !seen[i]);
            seen[i] = true;
            let program = &sample[i];
            let labels = [(String::from("main"), program.expected)];
            let outcome = check_response(&response, &oracle[&program.source], &labels, Some(tier));
            responses += 1;
            decided += u64::from(matches!(outcome, Ok(true)));
            checks.record(outcome.map(|_| ()));
        }
        best.end_pass();
        for note in server.take_diagnostics() {
            checks.record(Err(format!("store diagnostic: {note}")));
        }
    });
    eprintln!(
        "perfbench: restarts over a {}-program store: {}",
        sample.len(),
        best.describe()
    );
    let mut report = Report::new(checks);
    best.put(&mut report, &setup, None);
    put_shares(&mut report, decided, responses);
    report
}

// ---------------------------------------------------------------------- traced

/// Per-layer totals of a traced run.
#[derive(Default)]
struct Layers {
    times: StageTimes,
    counters: Counters,
    ranking_attempts: u64,
    nonterm_attempts: u64,
    orbit_attempts: u64,
    case_splits: u64,
    orbit_work: u64,
    work: u64,
    /// Per unique program: name, solve + validate seconds, analysis seconds
    /// and solver work.
    programs: Vec<(String, f64, f64, u64)>,
    /// Traced stages (without the key, which the untraced call skips)
    /// minus the untraced reference call, summed.
    overhead: f64,
}

/// Takes every unique program through the stages and checks the
/// decomposition against an untraced `analyze_source` of the same text.
/// Returns the layer totals and the untraced results by source, which serve
/// as the oracle's reference answers.
fn decompose_all(
    programs: &[(&str, &str)],
    options: &InferOptions,
    checks: &mut Checks,
) -> (Layers, Oracle) {
    let mut layers = Layers::default();
    let mut oracle = HashMap::new();
    for &(name, source) in programs {
        let began = Instant::now();
        let reference = stages::reference(source, options);
        let untraced = began.elapsed().as_secs_f64();
        let reference = self::reference(reference);
        let decomposed = stages::decompose(source, options);
        checks.record(match (&reference, &decomposed) {
            (Ok(r), Ok(d)) if r.rendered == d.rendered && r.result.stats.work == d.stats.work => {
                Ok(())
            }
            (Ok(_), Ok(_)) => Err(format!(
                "{name}: stage decomposition differs from analyze_source"
            )),
            (Err(err), _) | (_, Err(err)) => Err(format!("{name}: {err}")),
        });
        oracle.insert(source.to_string(), reference);
        let Ok(decomposed) = decomposed else {
            continue;
        };
        let t = &decomposed.times;
        layers.times.add(t);
        layers.counters.pivots += decomposed.counters.pivots;
        layers.counters.cubes += decomposed.counters.cubes;
        layers.counters.overflows += decomposed.counters.overflows;
        let s = &decomposed.stats;
        layers.ranking_attempts += s.ranking_attempts as u64;
        layers.nonterm_attempts += s.nonterm_attempts as u64;
        layers.orbit_attempts += s.orbit_attempts as u64;
        layers.case_splits += s.case_splits as u64;
        layers.orbit_work += s.orbit_work;
        layers.work += s.work;
        layers.overhead += t.total() - t.key - untraced;
        layers
            .programs
            .push((name.to_string(), t.solve + t.validate, t.analysis(), s.work));
    }
    (layers, oracle)
}

fn add_stats(total: &mut SessionStats, s: SessionStats) {
    total.programs += s.programs;
    total.dedup_hits += s.dedup_hits;
    total.memory_hits += s.memory_hits;
    total.store_hits += s.store_hits;
    total.store_writes += s.store_writes;
    total.method_hits += s.method_hits;
    total.cache_misses += s.cache_misses;
    total.work += s.work;
}

/// What a traced run measured around the session, store and server.
#[derive(Default)]
struct Serving {
    stats: SessionStats,
    handle_line_s: f64,
    /// The same sources through a twin session directly.
    session_s: f64,
    store_open_s: f64,
    store_entries: usize,
    store_method_entries: usize,
    store_log_bytes: u64,
    /// Method hits on edit requests, and methods those edits left unchanged.
    edit_method_hits: u64,
    edit_unedited: u64,
}

impl Serving {
    /// Opens the store in `dir`, timing the open and reading its size.
    fn open_store(&mut self, dir: &Path) -> SummaryStore {
        let began = Instant::now();
        let store = SummaryStore::open(dir).expect("scratch store opens");
        self.store_open_s = began.elapsed().as_secs_f64();
        self.store_entries = store.entries();
        self.store_method_entries = store.method_entries();
        self.store_log_bytes = std::fs::metadata(store.path()).map_or(0, |m| m.len());
        store
    }

    /// Sends `requests` to `server` one line at a time, checking every
    /// response against its expected tier, then the same sources to `twin`,
    /// a session configured like the server's, to time the protocol.
    fn replay(
        &mut self,
        server: &Server,
        twin: AnalysisSession,
        requests: &[(&Request, Option<&str>)],
        oracle: &Oracle,
        checks: &mut Checks,
    ) {
        for (id, (request, tier)) in requests.iter().enumerate() {
            let line = request_line(id, &request.source);
            let began = Instant::now();
            let response = server.handle_line(&line);
            self.handle_line_s += began.elapsed().as_secs_f64();
            if request.kind == RequestKind::Edit {
                let parsed = serde_json::from_str(&response).unwrap_or(Value::Null);
                let hits = parsed
                    .get("method_hits")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                self.edit_method_hits += hits as u64;
                let methods = tnt_lang::frontend(&request.source).map_or(0, |p| p.methods.len());
                self.edit_unedited += methods.saturating_sub(1) as u64;
            }
            let outcome =
                check_response(&response, &oracle[&request.source], &request.labels, *tier);
            checks.record(outcome.map(|_| ()));
        }
        add_stats(&mut self.stats, server.stats());
        for (request, _) in requests {
            let began = Instant::now();
            std::hint::black_box(twin.analyze_batch_with(&[request.source.as_str()], 1));
            self.session_s += began.elapsed().as_secs_f64();
        }
    }
}

/// A corpus program as a serve request.
fn corpus_request(program: &CorpusProgram) -> Request {
    Request {
        kind: RequestKind::Cold,
        source: program.source.clone(),
        labels: vec![("main".into(), program.expected)],
        edited: None,
    }
}

/// The traced run: every unique program of the workload through the
/// stages, then the workload's requests through the session, store and
/// server, all on one thread.
fn traced(workload: &str, args: &Args, options: &InferOptions, scratch: &mut Scratch) -> Report {
    let mut checks = Checks::default();
    let corpus = gen::corpus();
    let sample = gen::restart_sample(args.seed);
    let (names, requests): (Vec<String>, Vec<Request>) = match workload {
        "corpus-cold" => gen::corpus_order(args.seed, 0)
            .into_iter()
            .map(|i| (corpus[i].name.clone(), corpus_request(&corpus[i])))
            .unzip(),
        "serve-edit" => gen::edit_stream(args.seed)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (format!("request_{i}"), r))
            .unzip(),
        _ => gen::restart_mix(args.seed, sample.len())
            .into_iter()
            .map(|i| (sample[i].name.clone(), corpus_request(&sample[i])))
            .unzip(),
    };
    let mut seen = std::collections::HashSet::new();
    let unique: Vec<(&str, &str)> = names
        .iter()
        .zip(&requests)
        .filter(|(_, r)| seen.insert(r.source.as_str()))
        .map(|(n, r)| (n.as_str(), r.source.as_str()))
        .collect();
    let (layers, oracle) = decompose_all(&unique, options, &mut checks);

    // Serve-edit starts from an empty store; the other workloads replay
    // against a full one, so a program's first request is a store read.
    let tiers: Vec<Option<&str>> = if workload == "serve-edit" {
        stream_tiers(&requests)
    } else {
        let mut seen = std::collections::HashSet::new();
        requests
            .iter()
            .map(|r| {
                Some(if seen.insert(r.source.as_str()) {
                    "store"
                } else {
                    "memory"
                })
            })
            .collect()
    };
    let tiered: Vec<(&Request, Option<&str>)> = requests.iter().zip(tiers).collect();
    let mut serving = Serving::default();
    let reopened = |dir: &Path| {
        let store = SummaryStore::open(dir).expect("store reopens");
        AnalysisSession::new(*options).with_store(Arc::new(store))
    };
    match workload {
        "corpus-cold" => {
            // The workload's own batch on one thread, writing behind to a
            // store; then a server restarted over that store.
            let dir = scratch.fresh_dir();
            let session = reopened(&dir);
            let sources: Vec<&str> = requests.iter().map(|r| r.source.as_str()).collect();
            let entries = session.analyze_batch_with(&sources, 1);
            for ((entry, request), name) in entries.iter().zip(&requests).zip(&names) {
                checks.record(match &entry.result {
                    Ok(r) => soundness(r.verdict("main"), request.labels[0].1, name),
                    Err(err) => Err(format!("{name}: {err}")),
                });
            }
            add_stats(&mut serving.stats, session.stats());
            drop(session);
            let server = Server::new(*options).with_store(Arc::new(serving.open_store(&dir)));
            serving.replay(&server, reopened(&dir), &tiered, &oracle, &mut checks);
        }
        "serve-edit" => {
            let dir = scratch.fresh_dir();
            let server = fresh_server(options, &dir);
            serving.replay(
                &server,
                reopened(&scratch.fresh_dir()),
                &tiered,
                &oracle,
                &mut checks,
            );
            drop(server);
            drop(serving.open_store(&dir));
        }
        _ => {
            let dir = prefill(&sample, options, scratch);
            let server = Server::new(*options).with_store(Arc::new(serving.open_store(&dir)));
            serving.replay(&server, reopened(&dir), &tiered, &oracle, &mut checks);
        }
    }

    // Calibration gauges over the unique programs.
    let mut by_cost = layers.programs.clone();
    by_cost.sort_by(|a, b| b.1.total_cmp(&a.1));
    let tail = ((by_cost.len() as f64 * 0.03).ceil() as usize).max(1);
    let solve_validate: f64 = by_cost.iter().map(|p| p.1).sum();
    let tail_share = by_cost.iter().take(tail).map(|p| p.1).sum::<f64>() / solve_validate;
    let work: Vec<f64> = layers.programs.iter().map(|p| p.3 as f64).collect();
    let time: Vec<f64> = layers.programs.iter().map(|p| p.2).collect();
    let rho = spearman(&work, &time);
    eprintln!(
        "perfbench: {} unique programs traced; costliest by solve + validate time:",
        layers.programs.len()
    );
    for (name, sv, _, work) in by_cost.iter().take(8) {
        eprintln!("  {name:<28} {sv:>9.4} s {work:>9} work units");
    }

    let mut report = Report::new(checks);
    let t = &layers.times;
    report.put("lang.frontend_s", t.frontend, "s");
    report.put("infer.key_s", t.key, "s");
    report.put("verify.hoare_s", t.hoare, "s");
    report.put("infer.solve_s", t.solve, "s");
    report.put("infer.validate_s", t.validate, "s");
    report.put("infer.summary_s", t.summary, "s");
    report.put("solver.pivots", layers.counters.pivots as f64, "count");
    report.put("logic.dnf_cubes", layers.counters.cubes as f64, "count");
    report.put(
        "solver.overflows",
        layers.counters.overflows as f64,
        "count",
    );
    report.put(
        "infer.ranking_attempts",
        layers.ranking_attempts as f64,
        "count",
    );
    report.put(
        "infer.nonterm_attempts",
        layers.nonterm_attempts as f64,
        "count",
    );
    report.put(
        "infer.orbit_attempts",
        layers.orbit_attempts as f64,
        "count",
    );
    report.put("infer.case_splits", layers.case_splits as f64, "count");
    report.put("infer.orbit_work", layers.orbit_work as f64, "count");
    report.put("infer.work", layers.work as f64, "count");
    report.put("infer.tail_share", tail_share, "share");
    report.put("infer.work_time_rho", rho, "rho");
    let s = &serving.stats;
    report.put("infer.dedup_hits", s.dedup_hits as f64, "count");
    report.put("infer.memory_hits", s.memory_hits as f64, "count");
    report.put("infer.store_hits", s.store_hits as f64, "count");
    report.put("infer.method_hits", s.method_hits as f64, "count");
    report.put("infer.cache_misses", s.cache_misses as f64, "count");
    let replay_ratio = if serving.edit_unedited == 0 {
        0.0
    } else {
        serving.edit_method_hits as f64 / serving.edit_unedited as f64
    };
    report.put("infer.method_replay_ratio", replay_ratio, "share");
    report.put("store.open_s", serving.store_open_s, "s");
    report.put("store.entries", serving.store_entries as f64, "count");
    report.put(
        "store.method_entries",
        serving.store_method_entries as f64,
        "count",
    );
    report.put("store.log_bytes", serving.store_log_bytes as f64, "bytes");
    report.put("serve.handle_line_s", serving.handle_line_s, "s");
    report.put(
        "serve.protocol_s",
        serving.handle_line_s - serving.session_s,
        "s",
    );
    report.put("trace.overhead_s", layers.overhead, "s");
    report
}
