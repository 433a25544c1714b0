//! `tnt-serve` — the analysis daemon.
//!
//! ```text
//! tnt-serve [--store DIR] [--max-request-bytes N]
//! ```
//!
//! Reads line-delimited JSON requests from stdin and writes one JSON response
//! line per request to stdout (see the `tnt_serve` crate docs for the
//! protocol). With `--store DIR`, inferred summaries persist to the
//! append-only store in `DIR` and warm-start every later run. Request lines
//! over `--max-request-bytes` (default 4 MiB) get an error response instead
//! of being parsed.

use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

use tnt_infer::InferOptions;
use tnt_serve::{serve, Server, DEFAULT_MAX_REQUEST_BYTES};
use tnt_store::SummaryStore;

fn main() -> ExitCode {
    let mut store_dir: Option<String> = None;
    let mut max_request_bytes = DEFAULT_MAX_REQUEST_BYTES;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => match args.next() {
                Some(dir) => store_dir = Some(dir),
                None => {
                    eprintln!("tnt-serve: --store requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--max-request-bytes" => match args.next().as_deref().map(str::parse::<usize>) {
                Some(Ok(bytes)) if bytes > 0 => max_request_bytes = bytes,
                Some(_) => {
                    eprintln!("tnt-serve: --max-request-bytes requires a positive integer");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("tnt-serve: --max-request-bytes requires a byte count argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: tnt-serve [--store DIR] [--max-request-bytes N]");
                println!();
                println!("Reads {{\"id\": …, \"source\": \"…\"}} requests, one per stdin line,");
                println!("and streams one JSON result line per request to stdout.");
                println!(
                    "Request lines over N bytes (default {DEFAULT_MAX_REQUEST_BYTES}) are rejected."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("tnt-serve: unknown argument '{other}' (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let mut server = Server::new(InferOptions::default()).with_max_request_bytes(max_request_bytes);
    if let Some(dir) = store_dir {
        match SummaryStore::open(&dir) {
            Ok(store) => {
                for note in store.diagnostics() {
                    eprintln!("tnt-serve: {note}");
                }
                eprintln!(
                    "tnt-serve: store {} open with {} summaries",
                    store.path().display(),
                    store.entries()
                );
                server = server.with_store(Arc::new(store));
            }
            Err(err) => {
                eprintln!("tnt-serve: cannot open store in '{dir}': {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    let stdin = io::stdin();
    let stdout = io::stdout();
    if let Err(err) = serve(&server, stdin.lock(), stdout.lock()) {
        eprintln!("tnt-serve: IO error: {err}");
        return ExitCode::FAILURE;
    }

    let stats = server.stats();
    let _ = writeln!(
        io::stderr(),
        "tnt-serve: {} requests ({} dedup, {} memory, {} store hits; {} method hits; {} store writes; {} computed), {} work units",
        stats.programs,
        stats.dedup_hits,
        stats.memory_hits,
        stats.store_hits,
        stats.method_hits,
        stats.store_writes,
        stats.cache_misses,
        stats.work
    );
    ExitCode::SUCCESS
}
