//! End-to-end tests of the daemon: lifecycle, mixed queries,
//! single-flight deduplication and store traffic observed through
//! `/metrics`, typed backpressure, deadline enforcement, graceful
//! drain, bounded frame length, one write per reply, and byte-identity
//! of served results across thread counts and against the library.

use cbsp_serve::{ServeConfig, Server};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cbsp-serve-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(tag: &str, configure: impl FnOnce(&mut ServeConfig)) -> (Server, SocketAddr, PathBuf) {
    start_in(temp_dir(tag), configure)
}

/// Starts a daemon over the store at `dir`, which may already hold
/// another daemon's artifacts.
fn start_in(
    dir: PathBuf,
    configure: impl FnOnce(&mut ServeConfig),
) -> (Server, SocketAddr, PathBuf) {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_dir: dir.clone(),
        default_timeout_ms: 120_000,
        workers: 1,
        ..ServeConfig::default()
    };
    configure(&mut cfg);
    let server = Server::start(cfg).expect("server starts");
    let addr = server.addr();
    (server, addr, dir)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(300)))
            .expect("timeout set");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// Sends one frame without waiting for the response.
    fn send(&mut self, frame: &str) {
        self.writer
            .write_all(frame.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("request written");
    }

    /// Reads one response line (without newline).
    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response read");
        line.trim_end().to_string()
    }

    /// Sends one frame and reads one response line (without newline).
    fn request(&mut self, frame: &str) -> String {
        self.send(frame);
        self.recv()
    }
}

fn one_shot(addr: SocketAddr, frame: &str) -> String {
    Client::connect(addr).request(frame)
}

/// Plain HTTP GET; returns the response body.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout set");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("request written");
    let mut text = String::new();
    BufReader::new(stream)
        .read_to_string(&mut text)
        .expect("response read");
    let (_headers, body) = text.split_once("\r\n\r\n").expect("has body");
    body.to_string()
}

fn field<'a>(value: &'a Value, path: &str) -> &'a Value {
    let mut cur = value;
    for part in path.split('.') {
        cur = cur
            .as_object()
            .and_then(|p| p.iter().find(|(k, _)| k == part))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {part} of {path}"));
    }
    cur
}

fn parse(frame: &str) -> Value {
    serde_json::parse(frame).unwrap_or_else(|e| panic!("bad frame {frame}: {e}"))
}

/// Polls `/metrics` until the daemon reports a request executing, so
/// assertions that need a provably occupied turn don't depend on
/// sleeps calibrated to one build profile. Panics if nothing starts
/// within ~10 s.
fn wait_until_executing(addr: SocketAddr) {
    for _ in 0..5_000 {
        let metrics = parse(&http_get(addr, "/metrics"));
        if matches!(field(&metrics, "serve.executing"), Value::UInt(n) if *n >= 1) {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("busy request never started executing");
}

fn assert_ok(frame: &str) -> Value {
    let v = parse(frame);
    assert_eq!(field(&v, "ok"), &Value::Bool(true), "not ok: {frame}");
    assert_eq!(field(&v, "v"), &Value::UInt(1));
    v
}

fn error_code(frame: &str) -> String {
    let v = parse(frame);
    assert_eq!(
        field(&v, "ok"),
        &Value::Bool(false),
        "not an error: {frame}"
    );
    match field(&v, "error.code") {
        Value::Str(s) => s.clone(),
        other => panic!("error.code not a string: {other:?}"),
    }
}

#[test]
fn mixed_queries_singleflight_and_metrics() {
    let (server, addr, dir) = start("mixed", |_| {});

    // Health and liveness first.
    assert_eq!(
        one_shot(addr, r#"{"id":1,"method":"ping"}"#),
        r#"{"id":1,"ok":true,"v":1,"result":{"pong":true}}"#
    );
    assert!(http_get(addr, "/healthz").contains("\"status\":\"ok\""));
    assert!(http_get(addr, "/nope").contains("not found"));

    // Occupy the single turn with a cold pipeline, then submit two
    // identical requests back to back on pre-opened connections: the
    // second finds the first admitted — waiting behind the busy turn,
    // or already executing — and joins it. (Even if the occupying run
    // finishes first, the twin executes for milliseconds while its
    // duplicate arrives in microseconds.)
    let occupy = std::thread::spawn(move || {
        one_shot(
            addr,
            r#"{"id":"a","method":"pipeline.run","params":{"benchmark":"swim","scale":"test","interval":20000}}"#,
        )
    });
    wait_until_executing(addr);
    let twin = r#"{"id":"g","method":"pipeline.run","params":{"benchmark":"gzip","scale":"test","interval":20000}}"#;
    let mut c1 = Client::connect(addr);
    let mut c2 = Client::connect(addr);
    c1.send(twin);
    c2.send(twin);
    let (first, second) = (c1.recv(), c2.recv());
    assert_ok(&occupy.join().expect("occupy"));
    assert_ok(&first);
    // Single flight: one execution, byte-identical responses.
    assert_eq!(first, second);

    let metrics = parse(&http_get(addr, "/metrics"));
    let hits = match field(&metrics, "serve.singleflight_hits") {
        Value::UInt(n) => *n,
        other => panic!("singleflight_hits: {other:?}"),
    };
    assert!(hits >= 1, "expected a single-flight hit, got {hits}");

    // The pipeline just ran, so its simpoint artifact is findable by
    // derived key without executing anything.
    let sp = assert_ok(&one_shot(
        addr,
        r#"{"id":2,"method":"simpoints.get","params":{"benchmark":"gzip","scale":"test","interval":20000}}"#,
    ));
    assert_eq!(field(&sp, "result.found"), &Value::Bool(true));
    assert!(matches!(field(&sp, "result.simpoint.k"), Value::UInt(k) if *k >= 1));

    // A different interval has a different key and is absent.
    let miss = assert_ok(&one_shot(
        addr,
        r#"{"id":3,"method":"simpoints.get","params":{"benchmark":"gzip","scale":"test","interval":19999}}"#,
    ));
    assert_eq!(field(&miss, "result.found"), &Value::Bool(false));

    // Store stats split pipeline artifacts from the lease namespaces.
    let stats = assert_ok(&one_shot(addr, r#"{"id":4,"method":"store.stats"}"#));
    assert!(matches!(field(&stats, "result.artifacts"), Value::UInt(n) if *n > 0));
    assert!(matches!(field(&stats, "result.pipeline.artifacts"), Value::UInt(n) if *n > 0));
    field(&stats, "result.traces.artifacts");
    assert_eq!(field(&stats, "result.replays.artifacts"), &Value::UInt(0));

    // CPI estimation over the warm store: four binaries, sane errors.
    let est = assert_ok(&one_shot(
        addr,
        r#"{"id":5,"method":"estimate.cpi","params":{"benchmark":"gzip","scale":"test","interval":20000}}"#,
    ));
    let binaries = field(&est, "result.binaries").as_array().expect("array");
    assert_eq!(binaries.len(), 4);
    for b in binaries {
        assert!(matches!(field(b, "true_cpi"), Value::Float(c) if *c > 0.0));
        assert!(matches!(field(b, "estimated_cpi"), Value::Float(c) if *c > 0.0));
    }
    // …whose detailed simulations landed in one replay lease.
    let stats = assert_ok(&one_shot(addr, r#"{"id":10,"method":"store.stats"}"#));
    assert_eq!(field(&stats, "result.replays.artifacts"), &Value::UInt(1));

    let snap = assert_ok(&one_shot(addr, r#"{"id":6,"method":"trace.snapshot"}"#));
    field(&snap, "result.enabled");

    // Typed failures.
    assert_eq!(
        error_code(&one_shot(addr, r#"{"id":7,"method":"no.such"}"#)),
        "bad_request"
    );
    assert_eq!(
        error_code(&one_shot(
            addr,
            r#"{"id":8,"method":"pipeline.run","params":{"benchmark":"not-a-benchmark"}}"#
        )),
        "bad_request"
    );
    assert_eq!(error_code(&one_shot(addr, "{{{")), "parse");
    // An expired deadline is reported as `timeout`, not executed.
    assert_eq!(
        error_code(&one_shot(
            addr,
            r#"{"id":9,"method":"pipeline.run","params":{"benchmark":"mcf","scale":"test","interval":20000},"timeout_ms":0}"#
        )),
        "timeout"
    );

    server.shutdown();
    server.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn an_oversized_frame_is_a_typed_error_and_the_session_continues() {
    let (server, addr, dir) = start("oversized", |_| {});
    let mut client = Client::connect(addr);
    let pad = "x".repeat(2 << 20);
    client.send(&format!(r#"{{"id":1,"method":"ping","pad":"{pad}"}}"#));
    let reply = client.recv();
    assert_eq!(error_code(&reply), "bad_request");
    assert_eq!(field(&parse(&reply), "id"), &Value::Null);
    assert_eq!(
        client.request(r#"{"id":2,"method":"ping"}"#),
        r#"{"id":2,"ok":true,"v":1,"result":{"pong":true}}"#
    );
    server.shutdown();
    server.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(dir);
}

/// Each reply leaves in one write: on a no-delay connection, the first
/// read of every reply already holds the whole frame and its newline.
#[test]
fn each_reply_arrives_in_one_read() {
    let (server, addr, dir) = start("one-write", |_| {});
    let Client { mut writer, .. } = Client::connect(addr);
    writer.set_nodelay(true).expect("no delay");
    let mut buf = [0u8; 256];
    for i in 0..200 {
        let request = format!("{{\"id\":{i},\"method\":\"ping\"}}\n");
        writer
            .write_all(request.as_bytes())
            .expect("request written");
        let n = writer.read(&mut buf).expect("reply read");
        let reply = format!("{{\"id\":{i},\"ok\":true,\"v\":1,\"result\":{{\"pong\":true}}}}\n");
        assert_eq!(
            String::from_utf8_lossy(&buf[..n]),
            reply,
            "reply {i} arrived split"
        );
    }
    server.shutdown();
    server.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn overload_is_rejected_with_typed_error() {
    let (server, addr, dir) = start("overload", |cfg| {
        cfg.max_inflight = 1;
    });
    // Fill the single admission slot with a cold ref-scale pipeline —
    // heavy enough that it is still executing when the probe below
    // lands, in any build profile…
    let busy = std::thread::spawn(move || {
        one_shot(
            addr,
            r#"{"id":"busy","method":"pipeline.run","params":{"benchmark":"swim","scale":"ref","interval":2000}}"#,
        )
    });
    wait_until_executing(addr);
    // …then every method that takes a turn must be refused, not
    // delayed.
    assert_eq!(
        error_code(&one_shot(addr, r#"{"id":1,"method":"store.stats"}"#)),
        "overloaded"
    );
    assert_ok(&busy.join().expect("busy"));
    server.shutdown();
    server.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn graceful_drain_completes_inflight_work() {
    let (server, addr, dir) = start("drain", |_| {});
    // A cold ref-scale request goes in flight (heavy enough to still
    // be executing when the drain order arrives, in any profile)…
    let inflight = std::thread::spawn(move || {
        one_shot(
            addr,
            r#"{"id":"w","method":"pipeline.run","params":{"benchmark":"swim","scale":"ref","interval":2000}}"#,
        )
    });
    wait_until_executing(addr);

    // …the server is told to drain…
    let mut ctl = Client::connect(addr);
    let bye = assert_ok(&ctl.request(r#"{"id":"s","method":"server.shutdown"}"#));
    assert_eq!(field(&bye, "result.draining"), &Value::Bool(true));

    // …the in-flight request still completes…
    assert_ok(&inflight.join().expect("inflight"));

    // …new work on a surviving connection is refused…
    assert_eq!(
        error_code(&ctl.request(
            r#"{"id":"n","method":"pipeline.run","params":{"benchmark":"gzip","scale":"test"}}"#
        )),
        "shutting_down"
    );

    // …and the server winds down cleanly.
    server.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(dir);
}

/// `/metrics` counts the daemon's own stage hits and misses whether or
/// not tracing is on: a second daemon over a warm store serves all
/// eight stages of a run from it.
#[test]
fn metrics_count_store_traffic_across_a_restart() {
    let request = r#"{"id":"r","method":"pipeline.run","params":{"benchmark":"gzip","scale":"test","interval":20000}}"#;
    let (server, addr, dir) = start("restart", |_| {});
    let cold = assert_ok(&one_shot(addr, request));
    assert_eq!(field(&cold, "result.cache.misses"), &Value::UInt(8));
    server.shutdown();
    server.wait().expect("clean drain");

    let (server, addr, dir) = start_in(dir, |_| {});
    let warm = assert_ok(&one_shot(addr, request));
    assert_eq!(field(&warm, "result.cache.hits"), &Value::UInt(8));
    assert_eq!(field(&warm, "result.cache.misses"), &Value::UInt(0));
    let metrics = parse(&http_get(addr, "/metrics"));
    assert_eq!(field(&metrics, "cache.store_hits"), &Value::UInt(8));
    assert_eq!(field(&metrics, "cache.store_misses"), &Value::UInt(0));
    assert_eq!(field(&metrics, "cache.store_hit_ratio"), &Value::Float(1.0));
    server.shutdown();
    server.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(dir);
}

/// A warm `estimate.cpi` answers from the estimates kept on its
/// resident run: once `cache gc` has evicted the replay lease under
/// the running daemon, the same request still replies byte for byte
/// as before, and simulates nothing, so no lease is written back.
#[test]
fn a_warm_estimate_reads_no_replay_lease() {
    let request = r#"{"id":"e","method":"estimate.cpi","params":{"benchmark":"gzip","scale":"test","interval":20000}}"#;
    let (server, addr, dir) = start("estimate-memo", |_| {});
    let cold = one_shot(addr, request);
    assert_ok(&cold);
    let store = cbsp_store::ArtifactStore::open(&dir).expect("store opens");
    let replays = || {
        let stats = store.stats().expect("store stats");
        stats.stage(cbsp_store::REPLAY_STAGE).artifacts
    };
    assert_eq!(replays(), 1);
    store.gc().expect("gc");
    assert_eq!(replays(), 0);

    assert_eq!(one_shot(addr, request), cold);
    assert_eq!(replays(), 0, "a warm estimate re-simulated");
    server.shutdown();
    server.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn results_are_byte_identical_across_thread_counts() {
    let request = r#"{"id":"x","method":"pipeline.run","params":{"benchmark":"equake","scale":"test","interval":20000,"detail":"full"}}"#;
    let estimate = r#"{"id":"e","method":"estimate.cpi","params":{"benchmark":"equake","scale":"test","interval":20000}}"#;
    let mut frames = Vec::new();
    let mut estimates = Vec::new();
    for threads in [1usize, 3] {
        let (server, addr, dir) = start("threads", |cfg| {
            cfg.threads = threads;
        });
        frames.push(one_shot(addr, request));
        let cold = one_shot(addr, estimate);
        // The second reply comes from the estimates kept on the run.
        assert_eq!(one_shot(addr, estimate), cold);
        estimates.push(cold);
        server.shutdown();
        server.wait().expect("clean drain");
        let _ = std::fs::remove_dir_all(dir);
    }
    assert_ok(&frames[0]);
    // Different servers, different thread budgets, fresh stores: the
    // full embedded CrossBinaryResult must not differ by a byte, and
    // neither may the estimate.
    assert_eq!(frames[0], frames[1]);
    assert_eq!(estimates[0], estimates[1]);

    // And the served result matches what the library computes directly
    // (the CLI's `--no-cache 1` path): same content hash.
    let equake = cbsp_store::Prepared::of(
        &cbsp_program::workloads::by_name("equake").expect("in suite"),
        cbsp_program::Scale::Test,
    );
    let config = cbsp_core::CbspConfig {
        interval_target: 20_000,
        ..cbsp_core::CbspConfig::default()
    };
    let cross = cbsp_core::run_cross_binary(&equake.refs(), equake.input(), &config)
        .expect("pipeline runs");
    let served = assert_ok(&frames[0]);
    assert_eq!(
        field(&served, "result.result_hash"),
        &Value::Str(cbsp_store::content_hash(&cross)),
    );

    // Each binary's served estimate is the store-less library estimate
    // at Table 1, bit for bit.
    let library = cbsp_store::TraceCache::new(None)
        .estimate_cpi(
            &equake,
            &cbsp_sim::MemoryConfig::default(),
            &cross,
            20_000,
            &cbsp_par::Pool::new(2),
        )
        .expect("library estimates");
    let served = assert_ok(&estimates[0]);
    let rows = field(&served, "result.binaries").as_array().expect("array");
    assert_eq!(rows.len(), library.len());
    let bits = |row: &Value, name: &str| match field(row, name) {
        Value::Float(f) => f.to_bits(),
        other => panic!("{name}: {other:?}"),
    };
    for (row, est) in rows.iter().zip(&library) {
        assert_eq!(bits(row, "true_cpi"), est.true_cpi.to_bits());
        assert_eq!(bits(row, "estimated_cpi"), est.estimated_cpi.to_bits());
        assert_eq!(bits(row, "ci_half"), est.ci_half.to_bits());
    }
}
