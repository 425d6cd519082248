//! The wire protocol: newline-delimited JSON frames.
//!
//! One request per line, one response per line, always in the same
//! order as the requests on that connection. The full specification,
//! with examples the integration tests assert against byte-for-byte,
//! lives in `docs/PROTOCOL.md`.
//!
//! A request:
//!
//! ```json
//! {"id": 1, "method": "pipeline.run", "params": {"benchmark": "gzip"}}
//! ```
//!
//! A response (`v` is [`PROTOCOL_VERSION`]):
//!
//! ```json
//! {"id": 1, "ok": true, "v": 1, "result": {"...": "..."}}
//! {"id": 1, "ok": false, "v": 1, "error": {"code": "bad_request", "message": "..."}}
//! ```
//!
//! Responses are built with a fixed key order (`id`, `ok`, `v`, then
//! `result`/`error`) so identical logical responses are identical
//! bytes — the property the byte-identity tests and the single-flight
//! cache both rely on.

use serde::Value;

/// Version stamped into every response as `"v"`. Bumped only when an
/// existing field changes meaning; adding result fields is not a bump
/// (clients must ignore unknown fields).
pub const PROTOCOL_VERSION: u64 = 1;

/// Typed failure classes of the protocol. The wire form is the
/// `snake_case` string from [`ErrorCode::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not valid JSON.
    Parse,
    /// The frame was JSON but not a valid request (missing/ill-typed
    /// fields, unknown method, unknown benchmark, bad parameters).
    BadRequest,
    /// `--max-inflight` requests are already admitted; retry later.
    /// The request was not executed.
    Overloaded,
    /// The request's deadline passed before a result was produced.
    Timeout,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The server failed internally; the request may not have executed.
    Internal,
}

impl ErrorCode {
    /// The wire form of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Timeout => "timeout",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed protocol failure: code plus human-readable detail.
pub type Fault = (ErrorCode, String);

/// Builds a [`Fault`] (shorthand used throughout the server).
pub fn fault(code: ErrorCode, message: impl Into<String>) -> Fault {
    (code, message.into())
}

/// A parsed request frame.
#[derive(Debug, Clone)]
pub struct Request {
    /// Echoed verbatim into the response; correlates frames when a
    /// client pipelines requests. Any JSON value; `null` if absent.
    pub id: Value,
    /// The method name, e.g. `"pipeline.run"`.
    pub method: String,
    /// The `params` object (`Value::Null` if absent).
    pub params: Value,
    /// Per-request deadline override in milliseconds.
    pub timeout_ms: Option<u64>,
}

/// Parses one request frame.
///
/// # Errors
///
/// [`ErrorCode::Parse`] if the line is not JSON, [`ErrorCode::BadRequest`]
/// if it is JSON but not a request object.
pub fn parse_request(line: &str) -> Result<Request, Fault> {
    let value = serde_json::parse(line).map_err(|e| fault(ErrorCode::Parse, format!("{e}")))?;
    let Some(pairs) = value.as_object() else {
        return Err(fault(
            ErrorCode::BadRequest,
            format!("request must be an object, got {}", value.kind()),
        ));
    };
    let id = get(pairs, "id").cloned().unwrap_or(Value::Null);
    let method = match get(pairs, "method") {
        Some(Value::Str(m)) => m.clone(),
        Some(other) => {
            return Err(fault(
                ErrorCode::BadRequest,
                format!("`method` must be a string, got {}", other.kind()),
            ))
        }
        None => return Err(fault(ErrorCode::BadRequest, "missing `method`")),
    };
    let params = match get(pairs, "params") {
        None | Some(Value::Null) => Value::Null,
        Some(obj @ Value::Object(_)) => obj.clone(),
        Some(other) => {
            return Err(fault(
                ErrorCode::BadRequest,
                format!("`params` must be an object, got {}", other.kind()),
            ))
        }
    };
    let timeout_ms = match get(pairs, "timeout_ms") {
        None | Some(Value::Null) => None,
        Some(Value::UInt(n)) => Some(*n),
        Some(other) => {
            return Err(fault(
                ErrorCode::BadRequest,
                format!(
                    "`timeout_ms` must be a non-negative integer, got {}",
                    other.kind()
                ),
            ))
        }
    };
    Ok(Request {
        id,
        method,
        params,
        timeout_ms,
    })
}

/// Serializes a success response frame (no trailing newline).
pub fn ok_frame(id: &Value, result: Value) -> String {
    frame(id, true, ("result", result))
}

/// Serializes an error response frame (no trailing newline).
pub fn err_frame(id: &Value, code: ErrorCode, message: &str) -> String {
    frame(
        id,
        false,
        (
            "error",
            obj(vec![
                ("code", Value::Str(code.as_str().to_string())),
                ("message", Value::Str(message.to_string())),
            ]),
        ),
    )
}

/// Serializes an error response frame carrying a `retry_after_ms`
/// backoff hint (no trailing newline). Used for `overloaded`: the
/// server suggests how long a well-behaved client should wait before
/// retrying, derived from how many requests wait for a turn.
pub fn err_frame_retry(id: &Value, code: ErrorCode, message: &str, retry_after_ms: u64) -> String {
    frame(
        id,
        false,
        (
            "error",
            obj(vec![
                ("code", Value::Str(code.as_str().to_string())),
                ("message", Value::Str(message.to_string())),
                ("retry_after_ms", Value::UInt(retry_after_ms)),
            ]),
        ),
    )
}

fn frame(id: &Value, ok: bool, payload: (&str, Value)) -> String {
    let body = obj(vec![
        ("id", id.clone()),
        ("ok", Value::Bool(ok)),
        ("v", Value::UInt(PROTOCOL_VERSION)),
        payload,
    ]);
    serde_json::to_string(&body).expect("value serialization cannot fail")
}

/// Builds an object value with the given key order.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Looks up a key in an object's pair list.
pub fn get<'a>(pairs: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A required string parameter.
///
/// # Errors
///
/// [`ErrorCode::BadRequest`] when absent or not a string.
pub fn param_str(params: &Value, key: &str) -> Result<String, Fault> {
    match params.as_object().and_then(|p| get(p, key)) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(fault(
            ErrorCode::BadRequest,
            format!("param `{key}` must be a string, got {}", other.kind()),
        )),
        None => Err(fault(
            ErrorCode::BadRequest,
            format!("missing param `{key}`"),
        )),
    }
}

/// An optional string parameter with a default.
///
/// # Errors
///
/// [`ErrorCode::BadRequest`] when present but not a string.
pub fn param_str_or(params: &Value, key: &str, default: &str) -> Result<String, Fault> {
    match params.as_object().and_then(|p| get(p, key)) {
        None | Some(Value::Null) => Ok(default.to_string()),
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(fault(
            ErrorCode::BadRequest,
            format!("param `{key}` must be a string, got {}", other.kind()),
        )),
    }
}

/// An optional non-negative integer parameter with a default.
///
/// # Errors
///
/// [`ErrorCode::BadRequest`] when present but not a non-negative
/// integer.
pub fn param_u64_or(params: &Value, key: &str, default: u64) -> Result<u64, Fault> {
    match params.as_object().and_then(|p| get(p, key)) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::UInt(n)) => Ok(*n),
        Some(other) => Err(fault(
            ErrorCode::BadRequest,
            format!(
                "param `{key}` must be a non-negative integer, got {}",
                other.kind()
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_request() {
        let r = parse_request(r#"{"id": 7, "method": "ping"}"#).expect("parses");
        assert_eq!(r.id, Value::UInt(7));
        assert_eq!(r.method, "ping");
        assert_eq!(r.params, Value::Null);
        assert_eq!(r.timeout_ms, None);
    }

    #[test]
    fn rejects_garbage_with_parse_and_shape_with_bad_request() {
        assert_eq!(
            parse_request("{{nope").expect_err("garbage").0,
            ErrorCode::Parse
        );
        assert_eq!(
            parse_request("[1,2]").expect_err("array").0,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_request(r#"{"id":1}"#).expect_err("no method").0,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_request(r#"{"method": 5}"#).expect_err("bad method").0,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_request(r#"{"method":"ping","params":[1]}"#)
                .expect_err("bad params")
                .0,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_request(r#"{"method":"ping","timeout_ms":-3}"#)
                .expect_err("bad timeout")
                .0,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn frames_have_fixed_key_order() {
        let ok = ok_frame(&Value::UInt(1), obj(vec![("pong", Value::Bool(true))]));
        assert_eq!(ok, r#"{"id":1,"ok":true,"v":1,"result":{"pong":true}}"#);
        let err = err_frame(&Value::Null, ErrorCode::Overloaded, "queue full");
        assert_eq!(
            err,
            r#"{"id":null,"ok":false,"v":1,"error":{"code":"overloaded","message":"queue full"}}"#
        );
    }

    #[test]
    fn retry_frames_carry_the_hint_after_the_message() {
        let err = err_frame_retry(&Value::UInt(3), ErrorCode::Overloaded, "queue full", 75);
        assert_eq!(
            err,
            r#"{"id":3,"ok":false,"v":1,"error":{"code":"overloaded","message":"queue full","retry_after_ms":75}}"#
        );
    }

    #[test]
    fn echoes_arbitrary_ids() {
        let r = parse_request(r#"{"id": {"a": [1]}, "method": "m"}"#).expect("parses");
        let frame = ok_frame(&r.id, Value::Null);
        assert!(frame.starts_with(r#"{"id":{"a":[1]},"#));
    }
}
