//! Per-connection protocol handling: NDJSON frames with an HTTP/1.1
//! sniffer.
//!
//! The first line of a connection decides its dialect: an HTTP request
//! line (`GET /metrics HTTP/1.1`) gets a one-shot HTTP response and the
//! connection closes; anything else is treated as newline-delimited
//! JSON for the connection's lifetime. Each request executes on the
//! connection's own thread, so responses are written in request order
//! (pipelining across requests is done with multiple connections).
//! Each response leaves in one write.
//!
//! Every line is read with a bound, [`MAX_LINE_BYTES`]: a client that
//! never sends `\n` cannot grow the connection's buffer without limit.

use crate::engine::{prepare_spec, Reply};
use crate::protocol::{
    err_frame, err_frame_retry, fault, obj, ok_frame, parse_request, ErrorCode, Request,
};
use crate::server::ServerCore;
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest line the daemon reads, terminator included: an NDJSON frame
/// or an HTTP request or header line.
const MAX_LINE_BYTES: usize = 1 << 20;

/// What [`read_line`] found.
enum Line {
    /// The client closed the connection.
    End,
    /// A line of at most [`MAX_LINE_BYTES`], now in the buffer.
    Read,
    /// A longer line, discarded up to and including its `\n`.
    TooLong,
}

/// Reads one line of at most [`MAX_LINE_BYTES`] into `line`. The rest
/// of a longer line is skipped as it arrives, never buffered.
fn read_line<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> std::io::Result<Line> {
    line.clear();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', line)?;
    if n == 0 {
        return Ok(Line::End);
    }
    if n < MAX_LINE_BYTES || line.ends_with(b"\n") {
        return Ok(Line::Read);
    }
    line.clear();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(Line::TooLong);
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let n = newline.map_or(buf.len(), |i| i + 1);
        reader.consume(n);
        if newline.is_some() {
            return Ok(Line::TooLong);
        }
    }
}

/// Serves one accepted connection to completion.
pub(crate) fn handle(core: Arc<ServerCore>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        let read = read_line(&mut reader, &mut line);
        // Open until its reply is written: a drain waits for it.
        let _open = core.open_frame();
        let mut frame = match read {
            Ok(Line::End) | Err(_) => return,
            Ok(Line::TooLong) => {
                core.metrics.count_request("(invalid)");
                core.metrics.count_error(ErrorCode::BadRequest.as_str());
                err_frame(
                    &Value::Null,
                    ErrorCode::BadRequest,
                    &format!("frame longer than {MAX_LINE_BYTES} bytes"),
                )
            }
            Ok(Line::Read) => {
                let Ok(text) = std::str::from_utf8(&line) else {
                    return;
                };
                if text.trim().is_empty() {
                    continue;
                }
                if is_http_request_line(text) {
                    serve_http(&core, text, &mut reader, &mut writer);
                    return;
                }
                handle_frame(&core, text.trim())
            }
        };
        frame.push('\n');
        if writer.write_all(frame.as_bytes()).is_err() {
            return;
        }
    }
}

/// Parses and executes one frame, returning the response frame.
fn handle_frame(core: &Arc<ServerCore>, line: &str) -> String {
    let started = Instant::now();
    let request = match parse_request(line) {
        Ok(r) => r,
        Err((code, message)) => {
            // Echo the id when the frame was at least a JSON object.
            let parsed = serde_json::parse(line).ok();
            let id = parsed
                .as_ref()
                .and_then(Value::as_object)
                .and_then(|p| crate::protocol::get(p, "id"))
                .cloned()
                .unwrap_or(Value::Null);
            core.metrics.count_request("(invalid)");
            core.metrics.count_error(code.as_str());
            return err_frame(&id, code, &message);
        }
    };
    core.metrics.count_request(&request.method);
    let outcome = dispatch(core, &request);
    core.metrics
        .latency
        .record_us(started.elapsed().as_micros() as u64);
    match outcome {
        Ok(result) => ok_frame(&request.id, result),
        Err((code, message)) => {
            core.metrics.count_error(code.as_str());
            if code == ErrorCode::Overloaded {
                // Backpressure carries a backoff hint so clients wait
                // instead of hot-retrying.
                err_frame_retry(&request.id, code, &message, core.retry_after_ms())
            } else {
                err_frame(&request.id, code, &message)
            }
        }
    }
}

/// Routes a request to its handler. Every method but `ping` and
/// `server.shutdown` runs through [`ServerCore::run`], on this thread.
fn dispatch(core: &Arc<ServerCore>, request: &Request) -> Reply {
    let deadline = Instant::now()
        + Duration::from_millis(
            request
                .timeout_ms
                .unwrap_or(core.cfg.default_timeout_ms)
                .min(3_600_000),
        );
    match request.method.as_str() {
        "ping" => Ok(obj(vec![("pong", Value::Bool(true))])),
        "server.shutdown" => {
            core.begin_drain();
            Ok(obj(vec![("draining", Value::Bool(true))]))
        }
        "pipeline.run" => {
            let spec = prepare_spec(&core.engine, &request.params, true)?;
            let key = format!(
                "pipeline.run:{}:{}",
                spec.keys.map.as_hex(),
                if spec.detail_full { "full" } else { "summary" }
            );
            core.run(Some(key), deadline, || {
                core.engine.execute_pipeline(&spec, deadline)
            })
        }
        "estimate.cpi" => {
            let spec = prepare_spec(&core.engine, &request.params, false)?;
            crate::engine::reject_fuzzy_estimate(&spec)?;
            let key = format!("estimate.cpi:{}", spec.keys.map.as_hex());
            core.run(Some(key), deadline, || {
                core.engine.execute_estimate(&spec, deadline)
            })
        }
        "simpoints.get" => {
            let spec = prepare_spec(&core.engine, &request.params, false)?;
            let key = format!("simpoints.get:{}", spec.keys.simpoint.as_hex());
            core.run(Some(key), deadline, || core.engine.execute_simpoints(&spec))
        }
        "store.stats" => core.run(None, deadline, || core.engine.execute_store_stats()),
        "trace.snapshot" => core.run(None, deadline, || core.engine.execute_trace_snapshot()),
        other => Err(fault(
            ErrorCode::BadRequest,
            format!("unknown method `{other}`"),
        )),
    }
}

/// `true` when the line looks like an HTTP/1.x request line.
fn is_http_request_line(line: &str) -> bool {
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let _path = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    matches!(
        method,
        "GET" | "HEAD" | "POST" | "PUT" | "DELETE" | "OPTIONS"
    ) && version.starts_with("HTTP/1.")
}

/// One-shot HTTP adapter: `GET /healthz` and `GET /metrics`.
fn serve_http<R: Read>(
    core: &Arc<ServerCore>,
    request_line: &str,
    reader: &mut BufReader<R>,
    writer: &mut TcpStream,
) {
    // Drain headers; bodies are not accepted on these endpoints.
    let mut header = Vec::new();
    loop {
        match read_line(reader, &mut header) {
            Ok(Line::End) | Err(_) => break,
            Ok(Line::Read) if header.trim_ascii().is_empty() => break,
            Ok(_) => {}
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = match (method, path) {
        ("GET", "/healthz") => (
            "200 OK",
            serde_json::to_string(&obj(vec![
                ("status", Value::Str("ok".to_string())),
                // Build version and uptime let operators detect
                // mixed versions and silent restarts from the probe
                // they already run.
                ("version", Value::Str(env!("CARGO_PKG_VERSION").to_string())),
                ("uptime_s", Value::UInt(core.uptime_s())),
                ("draining", Value::Bool(core.is_draining())),
            ]))
            .expect("healthz serializes"),
        ),
        ("GET", "/metrics") => ("200 OK", metrics_body(core)),
        _ => (
            "404 Not Found",
            r#"{"error":"not found (try /healthz or /metrics)"}"#.to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = writer.write_all(response.as_bytes());
}

/// The `/metrics` document: serve-side counters, cache effectiveness,
/// and the global trace snapshot.
fn metrics_body(core: &Arc<ServerCore>) -> String {
    let (depth, executing) = core.queue_depths();
    let serve = core
        .metrics
        .to_value(depth as u64, executing as u64, core.is_draining());

    let ratio = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    let store_hits = core.engine.store_hits.load(Ordering::Relaxed);
    let store_misses = core.engine.store_misses.load(Ordering::Relaxed);
    let singleflight = core.metrics.singleflight_hits.load(Ordering::Relaxed);
    let requests = core.metrics.requests.load(Ordering::Relaxed);
    let result_hits = core.engine.result_hits.load(Ordering::Relaxed);
    let result_misses = core.engine.result_misses.load(Ordering::Relaxed);
    let cache = obj(vec![
        ("store_hits", Value::UInt(store_hits)),
        ("store_misses", Value::UInt(store_misses)),
        (
            "store_hit_ratio",
            Value::Float(ratio(store_hits, store_misses)),
        ),
        ("result_hits", Value::UInt(result_hits)),
        ("result_misses", Value::UInt(result_misses)),
        (
            "result_hit_ratio",
            Value::Float(ratio(result_hits, result_misses)),
        ),
        (
            "singleflight_hit_ratio",
            Value::Float(ratio(singleflight, requests.saturating_sub(singleflight))),
        ),
    ]);
    let trace = serde_json::parse(&cbsp_trace::metrics_json()).unwrap_or(Value::Null);
    serde_json::to_string(&obj(vec![
        ("serve", serve),
        ("cache", cache),
        ("trace", trace),
    ]))
    .expect("metrics serialize")
}
