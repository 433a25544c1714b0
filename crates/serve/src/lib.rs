//! # tnt-serve
//!
//! The serving layer over [`tnt_infer::AnalysisSession`]: a long-running loop
//! that reads line-delimited JSON analysis requests on stdin, multiplexes them
//! onto one shared session (and, optionally, one persistent
//! [`tnt_store::SummaryStore`]), and streams one JSON result line per request
//! as it lands.
//!
//! ## Protocol
//!
//! One request per line:
//!
//! ```text
//! {"id": 1, "source": "void f(int x) { while (x > 0) { x = x - 1; } }"}
//! ```
//!
//! `id` is echoed back verbatim (any JSON value); `source` is the program
//! text. One response per line, in request order:
//!
//! ```text
//! {"id":1,"status":"ok","verdict":"Y","precondition":null,"cached":false,
//!  "tier":null,"method_hits":0,"work":63,"poisoned":false,"validated":true,
//!  "elapsed_s":0.002,
//!  "summaries":{"f":"case {\n  x <= 0 -> requires Term ensures true;\n  ...}"}}
//! ```
//!
//! `verdict` is the benchmark verdict (`Y`/`N`/`U`, with `T/O` when the
//! analysis gave up on budget), `precondition` carries the entry point's
//! inferred input precondition as `{"kind":"terminating"|"non-terminating",
//! "region":"…"}` — or `null` for a plain verdict, so the schema is stable —
//! `tier` names the cache tier that served a repeat (`"dedup"`, `"memory"`,
//! `"store"`), `method_hits` counts the method-granular summaries replayed
//! from the per-method record tier while computing this program (an edited
//! program is a program-tier miss, but its unedited methods are served from
//! their cached records), and `summaries` maps each summary label to its
//! rendered case-based specification. Malformed requests
//! and failed analyses produce `{"id":…,"status":"error","error":"…"}` — the
//! loop never dies on a bad request, and a panicking analysis is isolated by
//! the session's per-program `catch_unwind` machinery.
//!
//! Request lines over the size cap ([`DEFAULT_MAX_REQUEST_BYTES`], overridden
//! with [`Server::with_max_request_bytes`] / `tnt-serve --max-request-bytes`)
//! are rejected with an error response before being parsed, so their `id` is
//! `null`; [`serve`] buffers at most the cap of any line. A line that is not
//! valid UTF-8 gets the same kind of `null`-id error response.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use serde_json::{json_escape_into, Value};
use tnt_infer::{
    AnalysisSession, BatchEntry, CacheTier, InferOptions, SessionStats, SummaryBackend,
};

/// The default cap on one request line, in bytes (4 MiB). Large enough for
/// any real program text, small enough that a runaway or adversarial client
/// cannot make the daemon buffer an unbounded line before parsing it.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 4 * 1024 * 1024;

/// A shared analysis server: one session (with its in-memory cache and
/// optional persistent store tier) serving any number of sequential requests.
pub struct Server {
    session: AnalysisSession,
    max_request_bytes: usize,
}

impl Server {
    /// A server over a fresh session with the given options.
    pub fn new(options: InferOptions) -> Server {
        Server {
            session: AnalysisSession::new(options),
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
        }
    }

    /// Attaches a persistent summary store as the session's second cache tier.
    pub fn with_store(mut self, store: Arc<dyn SummaryBackend>) -> Server {
        self.session = self.session.with_store(store);
        self
    }

    /// Caps the size of a single request line. Oversized lines get a normal
    /// `status: "error"` response (with a `null` id — the request is rejected
    /// before it is parsed) and the loop keeps serving.
    pub fn with_max_request_bytes(mut self, bytes: usize) -> Server {
        self.max_request_bytes = bytes;
        self
    }

    /// The underlying session's reuse/spending counters.
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// Drains any diagnostics the persistent store accumulated (corrupt
    /// frames skipped, unreadable records) since the last call. Empty when no
    /// store is attached or nothing went wrong.
    pub fn take_diagnostics(&self) -> Vec<String> {
        self.session.store_diagnostics()
    }

    /// Handles one request line, returning exactly one JSON response line
    /// (without the trailing newline). Never panics on any input.
    pub fn handle_line(&self, line: &str) -> String {
        if line.len() > self.max_request_bytes {
            return self.oversized_response(line.len());
        }
        let request = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(err) => {
                return error_response(&Value::Null, &format!("request is not valid JSON: {err}"))
            }
        };
        let id = request.get("id").cloned().unwrap_or(Value::Null);
        let source = match request.get("source").and_then(Value::as_str) {
            Some(s) => s.to_string(),
            None => {
                return error_response(&id, "request is missing a string \"source\" member");
            }
        };
        // A one-element batch reuses the session's whole pipeline: key + cache
        // tiers, full-text collision guard, and catch_unwind panic isolation.
        let mut entries = self.session.analyze_batch_with(&[&source], 1);
        let entry = entries.pop().expect("one entry per submitted program");
        render_response(&id, &entry)
    }

    /// The error response to a request line of `length` bytes over the cap.
    fn oversized_response(&self, length: usize) -> String {
        error_response(
            &Value::Null,
            &format!(
                "request line is {length} bytes, over the {}-byte limit",
                self.max_request_bytes
            ),
        )
    }
}

/// Runs the serve loop: one response line per request line, flushed as it
/// lands so a driving process can pipeline requests interactively. A line is
/// buffered only up to the size cap: the rest of an oversized line is read
/// and discarded chunk by chunk, and the line is answered with an error, as
/// is a line that is not valid UTF-8. Store diagnostics (corrupt frames,
/// unreadable records) are drained after every request and logged to stderr,
/// so corruption surfaces next to the request that tripped over it rather
/// than only at shutdown.
pub fn serve(server: &Server, mut input: impl BufRead, mut output: impl Write) -> io::Result<()> {
    let cap = server.max_request_bytes;
    let mut line = Vec::new();
    while let Some(length) = read_line_capped(&mut input, &mut line, cap)? {
        let response = if length > cap {
            server.oversized_response(length)
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => server.handle_line(text),
                Err(_) => error_response(&Value::Null, "request line is not valid UTF-8"),
            }
        };
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        for note in server.take_diagnostics() {
            eprintln!("tnt-serve: store: {note}");
        }
    }
    Ok(())
}

/// Reads the next line of `input` into `line` without its `\n` or `\r\n`
/// ending (as [`BufRead::lines`] strips them), keeping at most `cap + 1`
/// bytes of it. Returns the line's full length, or `None` at end of input.
fn read_line_capped(
    input: &mut impl BufRead,
    line: &mut Vec<u8>,
    cap: usize,
) -> io::Result<Option<usize>> {
    line.clear();
    let (mut length, mut ended, mut last) = (0, false, None);
    while !ended {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        };
        if chunk.is_empty() {
            break;
        }
        let (content, consumed) = match chunk.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                ended = true;
                (&chunk[..newline], newline + 1)
            }
            None => (chunk, chunk.len()),
        };
        let room = cap.saturating_add(1).saturating_sub(line.len());
        line.extend_from_slice(&content[..content.len().min(room)]);
        length += content.len();
        last = content.last().copied().or(last);
        input.consume(consumed);
    }
    if length == 0 && !ended {
        return Ok(None);
    }
    if ended && last == Some(b'\r') {
        length -= 1;
        line.truncate(length);
    }
    Ok(Some(length))
}

fn render_response(id: &Value, entry: &BatchEntry) -> String {
    let result = match (&entry.result, &entry.panic_note) {
        (Ok(result), _) => result,
        // A panic note already reads `analysis panicked: …`.
        (Err(_), Some(note)) => return error_response(id, note),
        (Err(err), None) => return error_response(id, &err.to_string()),
    };
    let mut out = String::with_capacity(256);
    out.push_str("{\"id\":");
    emit_value(id, &mut out);
    out.push_str(",\"status\":\"ok\",\"verdict\":\"");
    out.push_str(result.outcome().as_str());
    out.push_str("\",\"precondition\":");
    match result.program_precondition() {
        Some(pre) => {
            out.push_str("{\"kind\":\"");
            json_escape_into(&pre.kind.to_string(), &mut out);
            out.push_str("\",\"region\":\"");
            json_escape_into(&pre.region.to_string(), &mut out);
            out.push_str("\"}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"cached\":");
    out.push_str(if entry.tier.is_some() {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"tier\":");
    match entry.tier {
        Some(CacheTier::Dedup) => out.push_str("\"dedup\""),
        Some(CacheTier::Memory) => out.push_str("\"memory\""),
        Some(CacheTier::Store) => out.push_str("\"store\""),
        None => out.push_str("null"),
    }
    out.push_str(",\"method_hits\":");
    out.push_str(&entry.method_hits.to_string());
    out.push_str(",\"work\":");
    out.push_str(&entry.work.to_string());
    out.push_str(",\"poisoned\":");
    out.push_str(if result.poisoned { "true" } else { "false" });
    out.push_str(",\"validated\":");
    out.push_str(if result.validated { "true" } else { "false" });
    out.push_str(",\"elapsed_s\":");
    emit_f64(entry.elapsed, &mut out);
    out.push_str(",\"summaries\":{");
    for (i, (label, summary)) in result.summaries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape_into(label, &mut out);
        out.push_str("\":\"");
        json_escape_into(&summary.render(), &mut out);
        out.push('"');
    }
    out.push_str("}}");
    out
}

fn error_response(id: &Value, message: &str) -> String {
    let mut out = String::with_capacity(64 + message.len());
    out.push_str("{\"id\":");
    emit_value(id, &mut out);
    out.push_str(",\"status\":\"error\",\"error\":\"");
    json_escape_into(message, &mut out);
    out.push_str("\"}");
    out
}

/// Emits a parsed [`Value`] back as compact JSON (used to echo request ids).
fn emit_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => emit_f64(*n, out),
        Value::String(s) => {
            out.push('"');
            json_escape_into(s, out);
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_value(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape_into(k, out);
                out.push_str("\":");
                emit_value(v, out);
            }
            out.push('}');
        }
    }
}

fn emit_f64(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&n.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TERMINATING: &str = "void f(int x) { if (x <= 0) { return; } else { f(x - 1); } }";
    const LOOPING: &str = "void g(int x) { g(x + 1); }";

    fn parse(line: &str) -> Value {
        serde_json::from_str(line).expect("every response line is valid JSON")
    }

    #[test]
    fn ok_response_carries_verdict_and_summaries() {
        let server = Server::new(InferOptions::default());
        let resp = parse(&server.handle_line(&format!(
            "{{\"id\": 1, \"source\": \"{}\"}}",
            TERMINATING.replace('"', "\\\"")
        )));
        assert_eq!(resp.get("id").and_then(Value::as_f64), Some(1.0));
        assert_eq!(resp.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(resp.get("verdict").and_then(Value::as_str), Some("Y"));
        assert_eq!(resp.get("cached").and_then(Value::as_bool), Some(false));
        assert!(resp.get("tier").unwrap().is_null());
        assert_eq!(resp.get("method_hits").and_then(Value::as_f64), Some(0.0));
        assert!(resp.get("work").and_then(Value::as_f64).unwrap() > 0.0);
        let summaries = resp.get("summaries").unwrap().as_object().unwrap();
        assert!(summaries.keys().any(|k| k == "f"));
        assert!(summaries["f"].as_str().unwrap().contains("case {"));
    }

    #[test]
    fn duplicate_request_is_served_from_the_memory_tier() {
        let server = Server::new(InferOptions::default());
        let req = format!(
            "{{\"id\": \"a\", \"source\": \"{}\"}}",
            LOOPING.replace('"', "\\\"")
        );
        let cold = parse(&server.handle_line(&req));
        let warm = parse(&server.handle_line(&req));
        assert_eq!(cold.get("cached").and_then(Value::as_bool), Some(false));
        assert_eq!(warm.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(warm.get("tier").and_then(Value::as_str), Some("memory"));
        assert_eq!(warm.get("verdict").and_then(Value::as_str), Some("N"));
        assert_eq!(warm.get("method_hits").and_then(Value::as_f64), Some(0.0));
        // The warm response is identical in everything but the cache fields.
        assert_eq!(cold.get("summaries"), warm.get("summaries"));
        assert_eq!(cold.get("work"), warm.get("work"));
        assert_eq!(server.stats().memory_hits, 1);
    }

    #[test]
    fn edited_method_is_served_from_the_method_tier() {
        let server = Server::new(InferOptions::default());
        let original = "void leaf(int x) { if (x > 0) { leaf(x - 1); } else { return; } } \
                        void root(int x, int y) \
                        { leaf(x); if (y > 0) { root(x, y - 1); } else { return; } }";
        let edited = original.replace("y > 0", "y > 7");
        let request = |src: &str| format!("{{\"id\": 1, \"source\": \"{src}\"}}");
        let cold = parse(&server.handle_line(&request(original)));
        assert_eq!(cold.get("method_hits").and_then(Value::as_f64), Some(0.0));
        let warm = parse(&server.handle_line(&request(&edited)));
        assert_eq!(
            warm.get("cached").and_then(Value::as_bool),
            Some(false),
            "an edited program is a program-tier miss"
        );
        assert!(
            warm.get("method_hits").and_then(Value::as_f64).unwrap() >= 1.0,
            "the unedited leaf is replayed from its method record"
        );
    }

    #[test]
    fn plain_verdicts_serialize_a_null_precondition() {
        let server = Server::new(InferOptions::default());
        let resp = parse(&server.handle_line(&format!(
            "{{\"id\": 1, \"source\": \"{}\"}}",
            TERMINATING.replace('"', "\\\"")
        )));
        // Schema stability: the member is always present, null when no
        // precondition was inferred.
        let pre = resp.get("precondition").expect("member always present");
        assert!(pre.is_null());
    }

    #[test]
    fn nonterminating_precondition_round_trips_through_the_parser() {
        let server = Server::new(InferOptions::default());
        let source = "void main(int j, int k) { while (k >= 0) { k = k + 1; j = k; \
                      while (j >= 1) { j = j - 1; } } }";
        let resp = parse(&server.handle_line(&format!(
            "{{\"id\": 7, \"source\": \"{}\"}}",
            source.replace('"', "\\\"")
        )));
        assert_eq!(resp.get("verdict").and_then(Value::as_str), Some("N"));
        let pre = resp.get("precondition").unwrap();
        assert_eq!(
            pre.get("kind").and_then(Value::as_str),
            Some("non-terminating")
        );
        assert_eq!(pre.get("region").and_then(Value::as_str), Some("k >= 0"));
    }

    #[test]
    fn malformed_requests_get_error_lines_not_crashes() {
        let server = Server::new(InferOptions::default());
        for (line, expect_id) in [
            ("this is not json", Value::Null),
            ("{\"source\": 42}", Value::Null),
            ("{\"id\": 9}", Value::Number(9.0)),
            ("{\"id\": 9, \"source\": 42}", Value::Number(9.0)),
        ] {
            let resp = parse(&server.handle_line(line));
            assert_eq!(
                resp.get("status").and_then(Value::as_str),
                Some("error"),
                "{line}"
            );
            assert!(
                resp.get("error").and_then(Value::as_str).is_some(),
                "{line}"
            );
            assert_eq!(resp.get("id"), Some(&expect_id), "{line}");
        }
    }

    #[test]
    fn unparseable_source_is_an_error_response() {
        let server = Server::new(InferOptions::default());
        let resp = parse(&server.handle_line("{\"id\": 2, \"source\": \"void f( { } garbage\"}"));
        assert_eq!(resp.get("status").and_then(Value::as_str), Some("error"));
    }

    #[test]
    fn serve_loop_streams_one_line_per_request_and_skips_blanks() {
        let server = Server::new(InferOptions::default());
        let input = format!(
            "{{\"id\": 1, \"source\": \"{src}\"}}\n\n{{\"id\": 2, \"source\": \"{src}\"}}\nnot json\n",
            src = TERMINATING.replace('"', "\\\"")
        );
        let mut output = Vec::new();
        serve(&server, input.as_bytes(), &mut output).expect("serve loop");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "three non-blank requests, three responses");
        assert_eq!(
            parse(lines[1]).get("cached").and_then(Value::as_bool),
            Some(true),
            "second identical request is a cache hit"
        );
        assert_eq!(
            parse(lines[2]).get("status").and_then(Value::as_str),
            Some("error")
        );
    }

    #[test]
    fn oversized_requests_are_rejected_before_parsing() {
        let server = Server::new(InferOptions::default()).with_max_request_bytes(128);
        // A request that would be valid, inflated past the cap by whitespace
        // padding: the rejection must fire on raw line length, not content.
        let padding = " ".repeat(256);
        let line = format!(
            "{{\"id\": 3, {padding}\"source\": \"{}\"}}",
            TERMINATING.replace('"', "\\\"")
        );
        let resp = parse(&server.handle_line(&line));
        assert_eq!(resp.get("status").and_then(Value::as_str), Some("error"));
        assert!(
            resp.get("id").unwrap().is_null(),
            "the line is rejected unparsed, so the id cannot be echoed"
        );
        let message = resp.get("error").and_then(Value::as_str).unwrap();
        assert!(
            message.contains("128-byte limit"),
            "the error names the limit: {message}"
        );
        // The same request within the cap still works — and the loop as a
        // whole survives an oversized line between two good ones.
        let ok = format!(
            "{{\"id\": 3, \"source\": \"{}\"}}",
            TERMINATING.replace('"', "\\\"")
        );
        let mut output = Vec::new();
        let capped = Server::new(InferOptions::default()).with_max_request_bytes(128);
        serve(
            &capped,
            format!("{ok}\n{line}\n{ok}\n").as_bytes(),
            &mut output,
        )
        .expect("serve loop");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            parse(lines[0]).get("status").and_then(Value::as_str),
            Some("ok")
        );
        assert_eq!(
            parse(lines[1]).get("status").and_then(Value::as_str),
            Some("error")
        );
        assert_eq!(
            parse(lines[2]).get("status").and_then(Value::as_str),
            Some("ok"),
            "the loop keeps serving after an oversized line"
        );
    }

    /// Runs the serve loop over `input` and returns the parsed response lines.
    fn serve_all(server: &Server, input: impl BufRead) -> Vec<Value> {
        let mut output = Vec::new();
        serve(server, input, &mut output).expect("serve loop");
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(parse)
            .collect()
    }

    #[test]
    fn non_utf8_line_gets_an_error_and_the_loop_keeps_serving() {
        let server = Server::new(InferOptions::default());
        let mut input = b"\xff\xfe\n".to_vec();
        input.extend_from_slice(format!("{{\"id\": 1, \"source\": \"{LOOPING}\"}}\n").as_bytes());
        let responses = serve_all(&server, input.as_slice());
        assert_eq!(responses.len(), 2, "both lines are answered");
        assert_eq!(
            responses[0].get("status").and_then(Value::as_str),
            Some("error")
        );
        assert!(responses[0].get("id").unwrap().is_null());
        assert_eq!(
            responses[1].get("verdict").and_then(Value::as_str),
            Some("N")
        );
    }

    #[test]
    fn oversized_line_is_measured_in_full_but_buffered_only_to_the_cap() {
        let server = Server::new(InferOptions::default()).with_max_request_bytes(64);
        // A reader that hands out 8-byte chunks, so the oversized line spans
        // many buffer refills.
        let ok = format!("{{\"id\": 2, \"source\": \"{LOOPING}\"}}\r\n");
        let input = format!("{}\r\n{ok}", "x".repeat(100_000));
        let mut line = Vec::new();
        let mut chunked = io::BufReader::with_capacity(8, input.as_bytes());
        assert_eq!(
            read_line_capped(&mut chunked, &mut line, 64).unwrap(),
            Some(100_000),
            "the `\\r\\n` ending is not counted"
        );
        assert_eq!(line.len(), 65, "at most cap + 1 bytes are kept");
        let responses = serve_all(&server, io::BufReader::with_capacity(8, input.as_bytes()));
        assert_eq!(responses.len(), 2);
        assert_eq!(
            responses[0].get("error").and_then(Value::as_str),
            Some("request line is 100000 bytes, over the 64-byte limit")
        );
        assert_eq!(
            responses[1].get("status").and_then(Value::as_str),
            Some("ok"),
            "the next line is still answered"
        );
    }

    #[test]
    fn panicked_analysis_is_reported_with_one_prefix() {
        let note = tnt_infer::session::panic_note(&"boom");
        let entry = BatchEntry {
            result: Err(tnt_infer::InferError {
                message: note.clone(),
            }),
            panic_note: Some(note),
            tier: None,
            work: 0,
            method_hits: 0,
            elapsed: 0.0,
        };
        let resp = parse(&render_response(&Value::Number(5.0), &entry));
        assert_eq!(resp.get("status").and_then(Value::as_str), Some("error"));
        let message = resp.get("error").and_then(Value::as_str).unwrap();
        assert_eq!(message, "analysis panicked: boom");
    }

    #[test]
    fn id_echo_round_trips_arbitrary_json_values() {
        let server = Server::new(InferOptions::default());
        let resp = parse(&server.handle_line(
            "{\"id\": {\"run\": [1, 2.5, null, true, \"x\\\"y\"]}, \"source\": \"void f() { return; }\"}",
        ));
        let id = resp.get("id").unwrap();
        let run = id.get("run").unwrap().as_array().unwrap();
        assert_eq!(run[1].as_f64(), Some(2.5));
        assert_eq!(run[4].as_str(), Some("x\"y"));
    }
}
