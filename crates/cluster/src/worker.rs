//! One worker as the router sees it: an address, a connection pool,
//! health state, and (for spawned workers) the in-process daemon
//! handle and its restart bookkeeping.
//!
//! The router runs workers in one of two modes. **Spawned** workers
//! are [`cbsp_serve::Server`] instances the router starts itself, one
//! per shard, each on an ephemeral port with its own artifact-store
//! directory; the router owns their lifecycle and restarts them when
//! they die. **Adopted** workers are externally managed daemons listed
//! in a shard map; the router proxies to them and health-checks them
//! but never restarts them. (This crate forbids unsafe code, so there
//! is no process spawning or signal handling here — a
//! "worker process" is a daemon instance with its own listener, queue,
//! and caches, which is exactly the unit the protocol sees.)

use cbsp_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Idle pooled connections kept per worker. Small: each request
/// checks a connection out exclusively, and the router's concurrency
/// per worker is bounded by its own connection threads.
const POOL_CAP: usize = 8;

/// One reusable NDJSON connection to a worker.
struct PooledConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Mutable worker state, guarded by one lock (all operations on it
/// are short; the actual request exchange happens outside the lock).
struct WorkerState {
    addr: Option<SocketAddr>,
    server: Option<Server>,
    idle: Vec<PooledConn>,
    /// Consecutive failed health probes (reset by any success).
    health_failures: u32,
    /// Next restart attempt may not happen before this instant.
    restart_at: Option<Instant>,
    /// Current restart backoff (doubles per failed attempt).
    backoff_ms: u64,
    /// Build version the last successful health probe reported.
    version: Option<String>,
}

/// A worker slot in the router.
pub(crate) struct Worker {
    /// Dense shard id.
    pub shard: u64,
    /// Whether the router owns this worker's lifecycle.
    pub spawned: bool,
    /// Artifact-store directory (spawned workers only).
    pub cache_dir: PathBuf,
    /// Routable: flipped false after `health_failures` consecutive
    /// probe failures or a connect failure, true on probe success.
    pub healthy: AtomicBool,
    /// Requests this worker answered.
    pub routed: AtomicU64,
    /// Same-worker retries after an `overloaded` backoff hint.
    pub retries: AtomicU64,
    /// Requests abandoned here and moved to the next shard.
    pub failovers: AtomicU64,
    /// Times the router restarted this worker.
    pub restarts: AtomicU64,
    state: Mutex<WorkerState>,
}

impl Worker {
    /// A slot for a router-spawned worker (not yet started).
    pub fn spawned(shard: u64, cache_dir: PathBuf) -> Worker {
        Worker::new(shard, true, cache_dir, None)
    }

    /// A slot for an adopted external worker at `addr`.
    pub fn adopted(shard: u64, addr: SocketAddr) -> Worker {
        Worker::new(shard, false, PathBuf::new(), Some(addr))
    }

    fn new(shard: u64, spawned: bool, cache_dir: PathBuf, addr: Option<SocketAddr>) -> Worker {
        Worker {
            shard,
            spawned,
            cache_dir,
            healthy: AtomicBool::new(true),
            routed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            state: Mutex::new(WorkerState {
                addr,
                server: None,
                idle: Vec::new(),
                health_failures: 0,
                restart_at: None,
                backoff_ms: 0,
                version: None,
            }),
        }
    }

    /// Starts (or restarts) the daemon for a spawned worker on an
    /// ephemeral port, reusing its shard store directory.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::start`]'s message.
    pub fn start(&self, cfg: &ServeConfig) -> Result<SocketAddr, String> {
        debug_assert!(self.spawned, "only spawned workers are started");
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: self.cache_dir.clone(),
            shard_id: Some(self.shard),
            ..cfg.clone()
        })?;
        let addr = server.addr();
        let mut st = self.state.lock().expect("worker lock");
        st.addr = Some(addr);
        st.server = Some(server);
        st.idle.clear();
        st.health_failures = 0;
        st.restart_at = None;
        st.backoff_ms = 0;
        drop(st);
        self.healthy.store(true, Ordering::SeqCst);
        Ok(addr)
    }

    /// The worker's current listen address, if it has one.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.state.lock().expect("worker lock").addr
    }

    /// Build version from the last successful health probe.
    pub fn version(&self) -> Option<String> {
        self.state.lock().expect("worker lock").version.clone()
    }

    /// Begins a graceful drain of a spawned worker (non-blocking).
    pub fn begin_drain(&self) {
        let st = self.state.lock().expect("worker lock");
        if let Some(server) = &st.server {
            server.shutdown();
        }
    }

    /// Stops a spawned worker: drains it (admitted requests finish),
    /// waits for the drain, closes its listener, and forgets its
    /// address and pooled connections. Returns `false` if there was no
    /// running server to stop.
    pub fn stop(&self) -> bool {
        let server = {
            let mut st = self.state.lock().expect("worker lock");
            st.addr = None;
            st.idle.clear();
            st.server.take()
        };
        self.healthy.store(false, Ordering::SeqCst);
        match server {
            Some(server) => {
                server.shutdown();
                let _ = server.wait();
                true
            }
            None => false,
        }
    }

    /// Sends one NDJSON frame and reads one response line. `payload`
    /// must end with `\n`. Reuses a pooled connection when one is
    /// idle; a failure on a *reused* connection is retried once on a
    /// fresh connection before being reported (pool staleness is
    /// normal, not a worker fault).
    ///
    /// # Errors
    ///
    /// A message when the worker is unreachable or the exchange
    /// failed on a fresh connection.
    pub fn exchange(&self, payload: &str, timeout: Duration) -> Result<String, String> {
        let addr = self
            .addr()
            .ok_or_else(|| format!("shard {} has no address", self.shard))?;
        if let Some(conn) = self.checkout() {
            if let Ok(response) = exchange_on(conn, payload, timeout, |c| self.check_in(c)) {
                return Ok(response);
            }
        }
        let conn = connect(addr, timeout)?;
        exchange_on(conn, payload, timeout, |c| self.check_in(c))
    }

    fn checkout(&self) -> Option<PooledConn> {
        self.state.lock().expect("worker lock").idle.pop()
    }

    fn check_in(&self, conn: PooledConn) {
        let mut st = self.state.lock().expect("worker lock");
        // A connection opened against a previous incarnation must not
        // outlive a restart; `start` clears the pool and `addr` is the
        // only handle new connections are minted from, so pooling here
        // is safe only while an address exists.
        if st.addr.is_some() && st.idle.len() < POOL_CAP {
            st.idle.push(conn);
        }
    }

    /// Records a successful health probe (with the reported `version`).
    pub fn probe_ok(&self, version: Option<String>) {
        let mut st = self.state.lock().expect("worker lock");
        st.health_failures = 0;
        st.backoff_ms = 0;
        st.restart_at = None;
        if version.is_some() {
            st.version = version;
        }
        drop(st);
        self.healthy.store(true, Ordering::SeqCst);
    }

    /// Records a failed health probe; after `threshold` consecutive
    /// failures the worker is marked unhealthy and (if spawned) a
    /// restart is scheduled. Returns the consecutive failure count.
    pub fn probe_failed(&self, threshold: u32) -> u32 {
        let mut st = self.state.lock().expect("worker lock");
        st.health_failures = st.health_failures.saturating_add(1);
        let failures = st.health_failures;
        if failures >= threshold {
            if st.restart_at.is_none() {
                st.restart_at = Some(Instant::now());
            }
            drop(st);
            self.healthy.store(false, Ordering::SeqCst);
        }
        failures
    }

    /// `true` when a scheduled restart attempt is due.
    pub fn restart_due(&self) -> bool {
        let st = self.state.lock().expect("worker lock");
        self.spawned && st.restart_at.is_some_and(|at| Instant::now() >= at)
    }

    /// Pushes the next restart attempt out by the current backoff,
    /// then doubles it (bounded by `max_ms`).
    pub fn backoff_restart(&self, base_ms: u64, max_ms: u64) {
        let mut st = self.state.lock().expect("worker lock");
        let wait = st.backoff_ms.max(base_ms).min(max_ms);
        st.restart_at = Some(Instant::now() + Duration::from_millis(wait));
        st.backoff_ms = (wait * 2).min(max_ms);
    }
}

fn connect(addr: SocketAddr, timeout: Duration) -> Result<PooledConn, String> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(timeout));
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream to {addr}: {e}"))?,
    );
    Ok(PooledConn {
        reader,
        writer: stream,
    })
}

/// Writes `payload`, reads one line, and returns the connection to
/// `check_in` on success (a failed connection is simply dropped).
fn exchange_on(
    mut conn: PooledConn,
    payload: &str,
    timeout: Duration,
    check_in: impl FnOnce(PooledConn),
) -> Result<String, String> {
    let _ = conn.writer.set_read_timeout(Some(timeout));
    conn.writer
        .write_all(payload.as_bytes())
        .and_then(|()| conn.writer.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    match conn.reader.read_line(&mut line) {
        Ok(0) => Err("connection closed before a response".to_string()),
        Ok(_) => {
            let response = line.trim_end_matches('\n').to_string();
            check_in(conn);
            Ok(response)
        }
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// A minimal one-shot HTTP GET against a worker's adapter endpoint
/// (`/healthz`, `/metrics`). Returns the response body.
///
/// # Errors
///
/// A message on connect/IO failure or a non-200 status line.
pub(crate) fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> Result<String, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: cluster\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed HTTP response".to_string())?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(format!("{path}: {status}"));
    }
    Ok(body.to_string())
}
