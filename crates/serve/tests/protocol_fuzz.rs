//! Property test: no frame a client can send — random bytes, truncated
//! JSON, wrong shapes — crashes a connection. Every
//! malformed frame yields a typed protocol error, and the connection
//! keeps serving afterwards.

use cbsp_serve::{ServeConfig, Server};
use proptest::collection::vec;
use proptest::prelude::*;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// One server for the whole property run; never drained (the test
/// process exits with it).
fn server_addr() -> SocketAddr {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let dir = std::env::temp_dir().join(format!("cbsp-serve-fuzz-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Server::start(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                threads: 1,
                cache_dir: dir,
                ..ServeConfig::default()
            })
            .expect("server starts")
        })
        .addr()
}

fn roundtrip(frame: &str) -> String {
    let stream = TcpStream::connect(server_addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(frame.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .expect("frame written");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response read");
    let response = line.trim_end().to_string();

    // The connection must survive the bad frame: a ping on the same
    // connection still answers.
    writer
        .write_all(b"{\"id\":\"after\",\"method\":\"ping\"}\n")
        .expect("ping written");
    line.clear();
    reader.read_line(&mut line).expect("ping response read");
    assert_eq!(
        line.trim_end(),
        r#"{"id":"after","ok":true,"v":1,"result":{"pong":true}}"#
    );
    response
}

const KNOWN_CODES: [&str; 6] = [
    "parse",
    "bad_request",
    "overloaded",
    "timeout",
    "shutting_down",
    "internal",
];

/// Asserts the response to a (presumed malformed) frame is a typed
/// protocol error. `ok:true` is also tolerated — a random string *can*
/// spell a valid request — but anything else fails.
fn assert_typed(frame: &str) {
    let response = roundtrip(frame);
    let value: Value = serde_json::parse(&response)
        .unwrap_or_else(|e| panic!("unparseable response {response}: {e}"));
    let get = |key: &str| {
        value
            .as_object()
            .and_then(|p| p.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
    };
    match get("ok") {
        Some(Value::Bool(true)) => {}
        Some(Value::Bool(false)) => {
            let code = get("error")
                .and_then(Value::as_object)
                .and_then(|p| p.iter().find(|(k, _)| k == "code"))
                .map(|(_, v)| v.clone());
            assert!(
                matches!(&code, Some(Value::Str(c)) if KNOWN_CODES.contains(&c.as_str())),
                "unknown error code {code:?} in {response}"
            );
        }
        other => panic!("response has no boolean ok ({other:?}): {response}"),
    }
}

/// A frame that is sendable as one line and not silently skipped as
/// blank.
fn sendable(s: &str) -> bool {
    !s.contains('\n') && !s.contains('\r') && !s.trim().is_empty()
}

proptest! {
    /// Arbitrary text frames: typed error (or, for the rare accidental
    /// valid request, a success) — never a hang, never a dead connection.
    #[test]
    fn random_frames_yield_typed_errors(chars in vec(any::<char>(), 1..60)) {
        let frame: String = chars.into_iter().collect();
        prop_assume!(sendable(&frame));
        // An accidental HTTP request line switches the connection's
        // dialect; that path is covered by the lifecycle tests.
        prop_assume!(!frame.starts_with("GET "));
        assert_typed(&frame);
    }

    /// Every proper prefix of a valid request is a parse error — a
    /// truncated frame can never execute or panic anything.
    #[test]
    fn truncated_requests_yield_typed_errors(cut in 1usize..94) {
        let full = r#"{"id":1,"method":"pipeline.run","params":{"benchmark":"gzip","scale":"test","interval":20000}}"#;
        prop_assume!(cut < full.len());
        let frame = &full[..cut];
        prop_assume!(sendable(frame));
        assert_typed(frame);
    }

    /// JSON that parses but has the wrong shape is `bad_request`, with
    /// the id echoed when one was present.
    #[test]
    fn wrong_shapes_yield_bad_request(id in 0u64..1000) {
        let frame = format!(r#"{{"id":{id},"method":42}}"#);
        let response = roundtrip(&frame);
        prop_assert!(
            response.contains(r#""code":"bad_request""#),
            "expected bad_request: {response}"
        );
        prop_assert!(
            response.starts_with(&format!(r#"{{"id":{id},"#)),
            "id not echoed: {response}"
        );
    }
}
