//! The cluster router: accept loop, frame forwarding with
//! retry/failover, the health-check loop, and the HTTP adapter.
//!
//! The router speaks the exact wire protocol of a single daemon —
//! clients cannot tell the difference. Every NDJSON frame is
//! classified by [`cbsp_serve::route::route`]; digest-keyed work is
//! forwarded verbatim to the shard that rendezvous hashing picks, and
//! the worker's response line is relayed back unchanged, byte for
//! byte. Requests the router must answer itself (`ping`, routing
//! errors, drain refusals) reproduce the daemon's frames exactly.
//!
//! ## Failover
//!
//! [`ShardMap::preference`] orders *all* shards per digest; the head
//! is the home shard and the tail is the failover order. A connect or
//! IO failure moves the request to the next candidate. An `overloaded`
//! rejection is retried once on the same worker after honoring its
//! `retry_after_ms` hint (bounded by the router's cap) — shedding to
//! another shard would forfeit the home shard's warm caches for a
//! momentary queue spike — and only then fails over. When every
//! candidate fails, the client receives the last real backpressure
//! frame if one was seen, else `unavailable`.

use crate::metrics::RouterMetrics;
use crate::shard_map::{ShardEntry, ShardMap};
use crate::worker::{http_get, Worker};
use cbsp_serve::protocol::{
    err_frame, get, obj, ok_frame, parse_request, ErrorCode, Request, PROTOCOL_VERSION,
};
use cbsp_serve::route::{route, Route};
use cbsp_serve::ServeConfig;
use cbsp_store::ArtifactStore;
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Configuration of one [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Router listen address (`:0` picks a free port).
    pub addr: String,
    /// Spawned workers when `adopt` is empty (minimum 1).
    pub workers: usize,
    /// Externally managed worker addresses to adopt instead of
    /// spawning. Adopted workers are health-checked and routed to but
    /// never restarted.
    pub adopt: Vec<String>,
    /// Root directory: the router persists its shard map under
    /// `<cache_dir>/router`, spawned shard `i` stores under
    /// `<cache_dir>/shard-i`.
    pub cache_dir: PathBuf,
    /// Thread budget per spawned worker (0 = one per core).
    pub worker_threads: usize,
    /// Admission bound per spawned worker.
    pub worker_max_inflight: usize,
    /// Deadline for requests that don't send `timeout_ms` (also the
    /// router's read timeout margin when waiting on a worker).
    pub default_timeout_ms: u64,
    /// Health probe period.
    pub health_interval_ms: u64,
    /// Consecutive failed probes before a worker is marked unhealthy.
    pub health_failures: u32,
    /// Upper bound the router honors from a worker's `retry_after_ms`
    /// hint before retrying (a worker under load may suggest more; the
    /// router prefers failing over to stalling the client).
    pub retry_after_cap_ms: u64,
    /// Initial restart backoff for a dead spawned worker.
    pub restart_backoff_ms: u64,
    /// Restart backoff ceiling (doubles per failed attempt up to this).
    pub restart_backoff_max_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            addr: "127.0.0.1:4660".to_string(),
            workers: 2,
            adopt: Vec::new(),
            cache_dir: PathBuf::from(".cbsp-cache"),
            worker_threads: 0,
            worker_max_inflight: 64,
            default_timeout_ms: 30_000,
            health_interval_ms: 250,
            health_failures: 3,
            retry_after_cap_ms: 250,
            restart_backoff_ms: 200,
            restart_backoff_max_ms: 3_000,
        }
    }
}

/// Shared router state.
pub(crate) struct RouterCore {
    cfg: ClusterConfig,
    workers: Vec<Worker>,
    map: Mutex<ShardMap>,
    store: ArtifactStore,
    metrics: RouterMetrics,
    draining: AtomicBool,
    addr: Mutex<Option<SocketAddr>>,
    started: Instant,
}

impl RouterCore {
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flips the cluster into drain mode (idempotent): the router
    /// refuses new work, every spawned worker starts its own drain,
    /// and the accept loop is woken so it can exit.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        for worker in &self.workers {
            worker.begin_drain();
        }
        if let Some(addr) = *self.addr.lock().expect("addr lock") {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// The serve configuration template spawned workers start from.
    fn worker_template(&self) -> ServeConfig {
        ServeConfig {
            threads: self.cfg.worker_threads,
            max_inflight: self.cfg.worker_max_inflight,
            default_timeout_ms: self.cfg.default_timeout_ms,
            ..ServeConfig::default()
        }
    }

    /// Rewrites one shard's address in the map, bumps the topology
    /// version, and re-persists it.
    fn update_shard_addr(&self, shard: usize, addr: SocketAddr) {
        let mut map = self.map.lock().expect("map lock");
        if let Some(entry) = map.shards.get_mut(shard) {
            entry.addr = addr.to_string();
        }
        map.version += 1;
        let snapshot = map.clone();
        drop(map);
        // Persistence is advisory (the live map is authoritative);
        // a store failure must not take down the health loop.
        let _ = snapshot.persist(&self.store);
    }
}

/// A running cluster: router listener plus its worker fleet.
///
/// Dropping the handle does not stop anything; call
/// [`Cluster::shutdown`] then [`Cluster::wait`] (or send the
/// `server.shutdown` method over the wire).
pub struct Cluster {
    core: Arc<RouterCore>,
    addr: SocketAddr,
    accept: thread::JoinHandle<()>,
    health: thread::JoinHandle<()>,
}

impl Cluster {
    /// Opens the router store, spawns or adopts the workers, persists
    /// the shard map (bumping any previously stored version), binds
    /// the router listener, and starts the accept and health loops.
    ///
    /// # Errors
    ///
    /// Returns a message when the store cannot be opened, a worker
    /// fails to start, an adopted address does not parse, or the
    /// router address cannot be bound.
    pub fn start(cfg: ClusterConfig) -> Result<Cluster, String> {
        let store = ArtifactStore::open(cfg.cache_dir.join("router"))
            .map_err(|e| format!("opening router store: {e}"))?;
        // Version continuity across router restarts: a reader that
        // cached version N must see our rewrite as > N.
        let prior_version = ShardMap::load(&store)
            .ok()
            .flatten()
            .map_or(0, |m| m.version);

        let (workers, mut map) = if cfg.adopt.is_empty() {
            let map = ShardMap::spawned(cfg.workers, &cfg.cache_dir);
            let workers: Vec<Worker> = map
                .shards
                .iter()
                .map(|e| Worker::spawned(e.shard, PathBuf::from(&e.cache_dir)))
                .collect();
            (workers, map)
        } else {
            let map = ShardMap::adopted(&cfg.adopt);
            map.validate().map_err(|e| format!("{e}"))?;
            let workers = map
                .shards
                .iter()
                .map(|e| {
                    e.addr
                        .parse()
                        .map(|addr| Worker::adopted(e.shard, addr))
                        .map_err(|err| format!("adopted address `{}`: {err}", e.addr))
                })
                .collect::<Result<Vec<Worker>, String>>()?;
            (workers, map)
        };

        let template = ServeConfig {
            threads: cfg.worker_threads,
            max_inflight: cfg.worker_max_inflight,
            default_timeout_ms: cfg.default_timeout_ms,
            ..ServeConfig::default()
        };
        for (worker, entry) in workers.iter().zip(map.shards.iter_mut()) {
            if worker.spawned {
                let addr = worker
                    .start(&template)
                    .map_err(|e| format!("starting shard {}: {e}", worker.shard))?;
                entry.addr = addr.to_string();
            }
        }
        map.version = prior_version + 1;
        map.persist(&store).map_err(|e| format!("{e}"))?;

        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;

        let core = Arc::new(RouterCore {
            cfg,
            workers,
            map: Mutex::new(map),
            store,
            metrics: RouterMetrics::default(),
            draining: AtomicBool::new(false),
            addr: Mutex::new(Some(addr)),
            started: Instant::now(),
        });

        let accept_core = Arc::clone(&core);
        let accept = thread::Builder::new()
            .name("cbsp-cluster-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_core.is_draining() {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let conn_core = Arc::clone(&accept_core);
                    let _ = thread::Builder::new()
                        .name("cbsp-cluster-conn".to_string())
                        .spawn(move || handle(conn_core, stream));
                }
            })
            .map_err(|e| format!("spawning accept loop: {e}"))?;

        let health_core = Arc::clone(&core);
        let health = thread::Builder::new()
            .name("cbsp-cluster-health".to_string())
            .spawn(move || health_loop(&health_core))
            .map_err(|e| format!("spawning health loop: {e}"))?;

        Ok(Cluster {
            core,
            addr,
            accept,
            health,
        })
    }

    /// The router's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the current shard map.
    pub fn shard_map(&self) -> ShardMap {
        self.core.map.lock().expect("map lock").clone()
    }

    /// Stops one spawned worker the hard-but-clean way (this crate
    /// forbids unsafe code, so there is no `kill(2)`): the worker
    /// drains its admitted requests, its listener closes, and from the
    /// router's perspective it is dead — connects are refused, the
    /// health loop marks it unhealthy and eventually restarts it. The
    /// test suite and the lifecycle CI job use this to exercise
    /// failover under load.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown shard, an adopted worker, or
    /// a worker that is already stopped.
    pub fn kill_worker(&self, shard: usize) -> Result<(), String> {
        let worker = self
            .core
            .workers
            .get(shard)
            .ok_or_else(|| format!("no shard {shard}"))?;
        if !worker.spawned {
            return Err(format!(
                "shard {shard} is adopted; the router does not own it"
            ));
        }
        if !worker.stop() {
            return Err(format!("shard {shard} is not running"));
        }
        Ok(())
    }

    /// Starts a graceful drain of the router and every spawned worker
    /// (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.core.begin_drain();
    }

    /// Blocks until the cluster has drained: the router's accept loop
    /// has exited, every spawned worker has finished its admitted
    /// requests and closed, and the health loop has stopped. Only
    /// returns after a drain was started.
    ///
    /// # Errors
    ///
    /// Returns a message if a router thread panicked.
    pub fn wait(self) -> Result<(), String> {
        self.accept
            .join()
            .map_err(|_| "accept loop panicked".to_string())?;
        for worker in &self.core.workers {
            worker.stop();
        }
        self.health
            .join()
            .map_err(|_| "health loop panicked".to_string())?;
        Ok(())
    }
}

/// Serves one accepted router connection: the same NDJSON dialect
/// with an HTTP/1.1 sniffer the daemon itself speaks.
fn handle(core: Arc<RouterCore>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        if is_http_request_line(&line) {
            serve_http(&core, line.clone(), &mut reader, &mut writer);
            return;
        }
        let frame = handle_frame(&core, line.trim());
        if writer
            .write_all(frame.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

/// Classifies and answers one frame. Frames answered locally (ping,
/// shutdown, errors) reproduce the daemon's bytes exactly; everything
/// else is forwarded and the worker's response relayed unchanged.
fn handle_frame(core: &Arc<RouterCore>, line: &str) -> String {
    core.metrics.count_request();
    let request = match parse_request(line) {
        Ok(r) => r,
        Err((code, message)) => {
            let parsed = serde_json::parse(line).ok();
            let id = parsed
                .as_ref()
                .and_then(Value::as_object)
                .and_then(|p| get(p, "id"))
                .cloned()
                .unwrap_or(Value::Null);
            core.metrics.count_error();
            return err_frame(&id, code, &message);
        }
    };
    let decision = match route(&request) {
        Ok(d) => d,
        Err((code, message)) => {
            core.metrics.count_error();
            return err_frame(&request.id, code, &message);
        }
    };
    match decision {
        Route::Local => ok_frame(&request.id, obj(vec![("pong", Value::Bool(true))])),
        Route::Shutdown => {
            core.begin_drain();
            ok_frame(&request.id, obj(vec![("draining", Value::Bool(true))]))
        }
        Route::AnyShard | Route::Digest(_) if core.is_draining() => {
            core.metrics.count_error();
            err_frame(&request.id, ErrorCode::ShuttingDown, "server is draining")
        }
        Route::AnyShard => {
            let preference: Vec<usize> = (0..core.workers.len()).collect();
            forward(core, &request, &preference, line)
        }
        Route::Digest(digest) => {
            let preference = core.map.lock().expect("map lock").preference(&digest);
            forward(core, &request, &preference, line)
        }
    }
}

/// Forwards the raw frame down the preference order with
/// retry-on-overloaded and failover-on-failure, as documented on the
/// module. Returns the frame to relay to the client.
fn forward(core: &Arc<RouterCore>, request: &Request, preference: &[usize], line: &str) -> String {
    let timeout = Duration::from_millis(
        request
            .timeout_ms
            .unwrap_or(core.cfg.default_timeout_ms)
            .min(3_600_000)
            .saturating_add(2_000),
    );
    let payload = format!("{}\n", line.trim());
    // Healthy shards first, in preference order; unhealthy ones still
    // get a last-resort pass (a worker may have just come back and the
    // health loop not noticed yet).
    let candidates: Vec<usize> = preference
        .iter()
        .filter(|&&i| core.workers[i].healthy.load(Ordering::SeqCst))
        .chain(
            preference
                .iter()
                .filter(|&&i| !core.workers[i].healthy.load(Ordering::SeqCst)),
        )
        .copied()
        .collect();
    let mut last_rejection: Option<String> = None;
    let mut abandoned_one = false;
    for index in candidates {
        let worker = &core.workers[index];
        if abandoned_one {
            core.metrics.count_failover();
        }
        match worker.exchange(&payload, timeout) {
            Ok(response) => {
                match rejection_of(&response) {
                    Some(Rejection::Overloaded { retry_after_ms }) => {
                        // Honor the worker's own backoff hint (capped),
                        // then retry the same worker once: its queue
                        // holds this digest's warm state.
                        core.metrics.count_retry();
                        worker.retries.fetch_add(1, Ordering::Relaxed);
                        thread::sleep(Duration::from_millis(
                            retry_after_ms.min(core.cfg.retry_after_cap_ms),
                        ));
                        if let Ok(retried) = worker.exchange(&payload, timeout) {
                            if rejection_of(&retried).is_none() {
                                worker.routed.fetch_add(1, Ordering::Relaxed);
                                core.metrics.count_routed();
                                return retried;
                            }
                            last_rejection = Some(retried);
                        }
                    }
                    Some(Rejection::ShuttingDown) => {
                        last_rejection = Some(response);
                    }
                    None => {
                        worker.routed.fetch_add(1, Ordering::Relaxed);
                        core.metrics.count_routed();
                        return response;
                    }
                }
            }
            Err(_) => {
                // Unreachable: skip it for subsequent requests until
                // the health loop certifies it again.
                worker.healthy.store(false, Ordering::SeqCst);
            }
        }
        worker.failovers.fetch_add(1, Ordering::Relaxed);
        abandoned_one = true;
    }
    // Truthful backpressure beats a synthetic error: if some worker
    // answered with overloaded/shutting_down, relay that frame.
    if let Some(frame) = last_rejection {
        return frame;
    }
    core.metrics.count_unavailable();
    core.metrics.count_error();
    err_frame(
        &request.id,
        ErrorCode::Unavailable,
        "no shard available for this request; retry later",
    )
}

/// A worker response that must not be relayed as the final answer
/// while other candidates remain.
enum Rejection {
    Overloaded { retry_after_ms: u64 },
    ShuttingDown,
}

/// Classifies a worker's response frame: `None` means a real answer
/// (success or a request-level error that every worker would repeat).
fn rejection_of(response: &str) -> Option<Rejection> {
    let value = serde_json::parse(response).ok()?;
    let pairs = value.as_object()?;
    if matches!(get(pairs, "ok"), Some(Value::Bool(true))) {
        return None;
    }
    let error = get(pairs, "error")?.as_object()?;
    match get(error, "code") {
        Some(Value::Str(code)) if code == "overloaded" => {
            let retry_after_ms = match get(error, "retry_after_ms") {
                Some(Value::UInt(n)) => *n,
                _ => 50,
            };
            Some(Rejection::Overloaded { retry_after_ms })
        }
        Some(Value::Str(code)) if code == "shutting_down" => Some(Rejection::ShuttingDown),
        _ => None,
    }
}

/// The health loop: probe every worker each interval, demote after
/// `health_failures` consecutive misses, restart dead spawned workers
/// with bounded exponential backoff, re-persist the map on address
/// changes.
fn health_loop(core: &Arc<RouterCore>) {
    let interval = Duration::from_millis(core.cfg.health_interval_ms.max(10));
    while !core.is_draining() {
        for (index, worker) in core.workers.iter().enumerate() {
            if core.is_draining() {
                return;
            }
            core.metrics.count_health_check();
            let body = worker
                .addr()
                .and_then(|a| http_get(a, "/healthz", Duration::from_millis(500)).ok());
            match body {
                Some(body) => worker.probe_ok(healthz_version(&body)),
                None => {
                    worker.probe_failed(core.cfg.health_failures);
                    if worker.restart_due() {
                        match worker.start(&core.worker_template()) {
                            Ok(addr) => {
                                worker.restarts.fetch_add(1, Ordering::Relaxed);
                                core.metrics.count_restart();
                                core.update_shard_addr(index, addr);
                            }
                            Err(_) => worker.backoff_restart(
                                core.cfg.restart_backoff_ms,
                                core.cfg.restart_backoff_max_ms,
                            ),
                        }
                    }
                }
            }
        }
        // Sleep in small slices so a drain is observed promptly.
        let deadline = Instant::now() + interval;
        while Instant::now() < deadline && !core.is_draining() {
            thread::sleep(Duration::from_millis(20));
        }
    }
}

/// Extracts `version` from a worker's `/healthz` body.
fn healthz_version(body: &str) -> Option<String> {
    let value = serde_json::parse(body).ok()?;
    let pairs = value.as_object()?;
    match get(pairs, "version") {
        Some(Value::Str(v)) => Some(v.clone()),
        _ => None,
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

/// One-shot HTTP adapter: `GET /healthz` and `GET /metrics` on the
/// router port.
fn serve_http<R: Read>(
    core: &Arc<RouterCore>,
    request_line: String,
    reader: &mut BufReader<R>,
    writer: &mut TcpStream,
) {
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) | Err(_) => break,
            Ok(_) if header.trim().is_empty() => break,
            Ok(_) => {}
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = match (method, path) {
        ("GET", "/healthz") => ("200 OK", healthz_body(core)),
        ("GET", "/metrics") => ("200 OK", metrics_body(core)),
        _ => (
            "404 Not Found",
            r#"{"error":"not found (try /healthz or /metrics)"}"#.to_string(),
        ),
    };
    let _ = write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = writer.flush();
}

/// The router's `/healthz`: fleet-level health at a glance. `role`
/// distinguishes it from a worker's probe on the same port scheme.
fn healthz_body(core: &Arc<RouterCore>) -> String {
    let healthy = core
        .workers
        .iter()
        .filter(|w| w.healthy.load(Ordering::SeqCst))
        .count() as u64;
    serde_json::to_string(&obj(vec![
        ("status", Value::Str("ok".to_string())),
        ("role", Value::Str("router".to_string())),
        ("version", Value::Str(env!("CARGO_PKG_VERSION").to_string())),
        ("uptime_s", Value::UInt(core.started.elapsed().as_secs())),
        ("shards", Value::UInt(core.workers.len() as u64)),
        ("healthy", Value::UInt(healthy)),
        ("draining", Value::Bool(core.is_draining())),
    ]))
    .expect("healthz serializes")
}

/// The router's `/metrics`: aggregate counters, one section per
/// worker (with its queue depth fetched on demand), and the global
/// trace snapshot with the mirrored `cluster/*` counters.
fn metrics_body(core: &Arc<RouterCore>) -> String {
    let m = &core.metrics;
    let map = core.map.lock().expect("map lock").clone();
    let cluster = obj(vec![
        ("protocol", Value::UInt(PROTOCOL_VERSION)),
        ("version", Value::Str(env!("CARGO_PKG_VERSION").to_string())),
        ("uptime_s", Value::UInt(core.started.elapsed().as_secs())),
        ("shard_map_version", Value::UInt(map.version)),
        ("requests", Value::UInt(m.requests.load(Ordering::Relaxed))),
        ("routed", Value::UInt(m.routed.load(Ordering::Relaxed))),
        ("retries", Value::UInt(m.retries.load(Ordering::Relaxed))),
        (
            "failovers",
            Value::UInt(m.failovers.load(Ordering::Relaxed)),
        ),
        ("restarts", Value::UInt(m.restarts.load(Ordering::Relaxed))),
        (
            "unavailable",
            Value::UInt(m.unavailable.load(Ordering::Relaxed)),
        ),
        (
            "health_checks",
            Value::UInt(m.health_checks.load(Ordering::Relaxed)),
        ),
        ("errors", Value::UInt(m.errors.load(Ordering::Relaxed))),
        ("draining", Value::Bool(core.is_draining())),
    ]);
    let shards = Value::Array(
        core.workers
            .iter()
            .zip(map.shards.iter())
            .map(|(worker, entry)| shard_section(worker, entry))
            .collect(),
    );
    let trace = serde_json::parse(&cbsp_trace::metrics_json()).unwrap_or(Value::Null);
    serde_json::to_string(&obj(vec![
        ("cluster", cluster),
        ("shards", shards),
        ("trace", trace),
    ]))
    .expect("metrics serialize")
}

/// One worker's `/metrics` section, including its live queue depth
/// (fetched on demand; `null` when the worker is unreachable).
fn shard_section(worker: &Worker, entry: &ShardEntry) -> Value {
    let depths = worker.addr().and_then(|a| {
        let body = http_get(a, "/metrics", Duration::from_millis(500)).ok()?;
        let value = serde_json::parse(&body).ok()?;
        let serve = get(value.as_object()?, "serve")?.as_object()?;
        let depth = match get(serve, "queue_depth") {
            Some(Value::UInt(n)) => *n,
            _ => return None,
        };
        let executing = match get(serve, "executing") {
            Some(Value::UInt(n)) => *n,
            _ => 0,
        };
        Some((depth, executing))
    });
    obj(vec![
        ("shard", Value::UInt(worker.shard)),
        ("addr", Value::Str(entry.addr.clone())),
        ("spawned", Value::Bool(worker.spawned)),
        (
            "healthy",
            Value::Bool(worker.healthy.load(Ordering::SeqCst)),
        ),
        ("version", worker.version().map_or(Value::Null, Value::Str)),
        ("routed", Value::UInt(worker.routed.load(Ordering::Relaxed))),
        (
            "retries",
            Value::UInt(worker.retries.load(Ordering::Relaxed)),
        ),
        (
            "failovers",
            Value::UInt(worker.failovers.load(Ordering::Relaxed)),
        ),
        (
            "restarts",
            Value::UInt(worker.restarts.load(Ordering::Relaxed)),
        ),
        (
            "queue_depth",
            depths.map_or(Value::Null, |(d, _)| Value::UInt(d)),
        ),
        (
            "executing",
            depths.map_or(Value::Null, |(_, e)| Value::UInt(e)),
        ),
    ])
}
