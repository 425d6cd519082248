//! The daemon: TCP listener, admission, turns, drain.
//!
//! ## Request life cycle
//!
//! ```text
//! accept ─► connection thread ─► parse ─► prepare (memoised binaries
//!                                           │        + stage keys)
//!                         draining? ────────┤ `shutting_down`
//!                         single-flight? ───┤ join the admitted twin
//!                         too many admitted?┤ `overloaded`
//!                                           ▼
//!                 wait for a turn (admission order, ≤ `workers` executing)
//!                                           ▼
//!                 execute (deadline at stage boundaries)
//!                 ─► reply to every joined twin ─► response frame
//! ```
//!
//! Every step runs on the connection thread that read the request. The
//! request is resolved to content digests first, so an identical
//! admitted request (same digests) is joined instead of executed again
//! — one execution serves every waiter. Admission is bounded: once
//! `max_inflight` requests wait for a turn or execute, new work is
//! rejected with `overloaded` rather than building unbounded latency.
//!
//! ## Drain
//!
//! The `server.shutdown` method (or [`Server::shutdown`]) flips the
//! draining flag: new connections and new requests are refused,
//! admitted requests run to completion, and [`Server::wait`] returns
//! once every frame read has been answered. There is no signal handler
//! — this crate forbids unsafe code, so SIGTERM cannot be trapped;
//! process supervisors should send `server.shutdown` and wait for the
//! port to close.

use crate::engine::{Engine, Reply};
use crate::metrics::ServeMetrics;
use crate::protocol::{fault, ErrorCode};
use cbsp_store::ArtifactStore;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:4650` (`:0` picks a free port).
    pub addr: String,
    /// Thread budget of each executing request (0 = one per core).
    /// Results are bit-identical at every setting.
    pub threads: usize,
    /// Admission bound: requests beyond this many waiting for a turn
    /// or executing are rejected with `overloaded`.
    pub max_inflight: usize,
    /// Artifact-store directory (created if absent).
    pub cache_dir: PathBuf,
    /// Deadline for requests that don't send `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Requests executing at once; the rest of the admitted requests
    /// wait for a turn in admission order. Two keeps cheap queries
    /// (`store.stats`) from stalling behind a long pipeline.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:4650".to_string(),
            threads: 0,
            max_inflight: 64,
            cache_dir: PathBuf::from(".cbsp-cache"),
            default_timeout_ms: 30_000,
            workers: 2,
        }
    }
}

/// Admission state, under one lock.
#[derive(Default)]
struct Admission {
    /// Turns handed out: the next admitted request takes this number.
    issued: usize,
    /// Turns whose request has finished. Turn `t` comes once
    /// `t < finished + workers`.
    finished: usize,
    /// Single-flight registry: key → the requests that joined the
    /// admitted request under it. An entry exists exactly while that
    /// request holds a turn.
    flights: HashMap<String, Vec<mpsc::Sender<Reply>>>,
    /// Frames read and not yet answered ([`Server::wait`] waits for 0).
    open_frames: usize,
}

/// Shared server state: engine, metrics, and admission.
pub(crate) struct ServerCore {
    pub cfg: ServeConfig,
    pub engine: Engine,
    pub metrics: ServeMetrics,
    state: Mutex<Admission>,
    /// Signalled when a turn finishes and when a drain's last open
    /// frame is answered.
    changed: Condvar,
    draining: AtomicBool,
    /// The listener's address, which a drain connects to so the accept
    /// loop wakes (`None` when nothing listens).
    addr: Option<SocketAddr>,
    /// When the server started (for `/healthz` uptime reporting).
    started: Instant,
}

/// A frame read from a connection and not yet answered. Dropping it,
/// once the reply is written, counts the frame answered.
pub(crate) struct OpenFrame<'a>(&'a ServerCore);

impl Drop for OpenFrame<'_> {
    fn drop(&mut self) {
        // Never panic in drop: every update under the lock is a single
        // step, so a poisoned state is still consistent.
        let mut st = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.open_frames -= 1;
        // Only `Server::wait` waits for this, and only once draining.
        if st.open_frames == 0 && self.0.is_draining() {
            self.0.changed.notify_all();
        }
    }
}

impl ServerCore {
    /// The state [`Server::start`] shares between its threads.
    fn new(mut cfg: ServeConfig, store: ArtifactStore, addr: Option<SocketAddr>) -> ServerCore {
        // With no turns, no request could ever run.
        cfg.workers = cfg.workers.max(1);
        ServerCore {
            engine: Engine::new(store, cfg.threads),
            metrics: ServeMetrics::default(),
            cfg,
            state: Mutex::default(),
            changed: Condvar::new(),
            draining: AtomicBool::new(false),
            addr,
            started: Instant::now(),
        }
    }

    fn state(&self) -> MutexGuard<'_, Admission> {
        self.state.lock().expect("admission lock")
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Whole seconds since [`Server::start`] — the `/healthz` uptime
    /// field operators use to spot restarts.
    pub fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The backoff hint attached to `overloaded` rejections: scales
    /// with the number of requests waiting for a turn at rejection
    /// time, so a client retrying after the hint finds a shorter line.
    /// Deliberately coarse — it is a hint, not a reservation.
    pub fn retry_after_ms(&self) -> u64 {
        let (queued, _executing) = self.queue_depths();
        (25 + 10 * queued as u64).min(2_000)
    }

    /// Current `(waiting for a turn, executing)` — sampled for
    /// `/metrics`. A request executes from the moment its turn comes.
    pub fn queue_depths(&self) -> (usize, usize) {
        let st = self.state();
        let executing = (st.issued - st.finished).min(self.cfg.workers);
        (st.issued - st.finished - executing, executing)
    }

    /// Counts a frame read until the returned guard drops.
    pub fn open_frame(&self) -> OpenFrame<'_> {
        self.state().open_frames += 1;
        OpenFrame(self)
    }

    /// Flips the server into drain mode (idempotent): refuse new work,
    /// finish what was admitted, wake the accept loop.
    pub fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in `accept()`; a throwaway connection
        // wakes it so it can observe the flag and exit.
        if let Some(addr) = self.addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// Runs one request on the calling thread. It is admitted, waits
    /// for its turn — turns start in admission order, at most
    /// [`ServeConfig::workers`] executing at once — then `execute`
    /// runs, and its reply also answers every request that joined it.
    /// With a single-flight `key`, an identical admitted request
    /// absorbs this one, which returns that request's reply.
    ///
    /// # Errors
    ///
    /// `shutting_down` while draining, `overloaded` once `max_inflight`
    /// requests are admitted, `timeout` when the deadline passed while
    /// the request waited for its turn, and `internal` when `execute`
    /// panicked.
    pub fn run(
        &self,
        key: Option<String>,
        deadline: Instant,
        execute: impl FnOnce() -> Reply,
    ) -> Reply {
        if self.is_draining() {
            return Err(fault(ErrorCode::ShuttingDown, "server is draining"));
        }
        let metrics = &self.metrics;
        let mut st = self.state();
        if let Some(joined) = key.as_ref().and_then(|k| st.flights.get_mut(k)) {
            let (tx, rx) = mpsc::channel();
            joined.push(tx);
            drop(st);
            metrics.singleflight_hits.fetch_add(1, Ordering::Relaxed);
            return rx
                .recv()
                .expect("a request replies to every request that joined it");
        }
        if st.issued - st.finished >= self.cfg.max_inflight {
            metrics.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(fault(
                ErrorCode::Overloaded,
                format!(
                    "admission queue full ({} in flight); retry later",
                    self.cfg.max_inflight
                ),
            ));
        }
        if let Some(k) = &key {
            st.flights.insert(k.clone(), Vec::new());
        }
        let turn = st.issued;
        st.issued += 1;
        let admitted = Instant::now();
        while turn >= st.finished + self.cfg.workers {
            st = self.changed.wait(st).expect("admission lock");
        }
        drop(st);

        let waited = admitted.elapsed().as_micros() as u64;
        metrics.queue_wait_us.fetch_add(waited, Ordering::Relaxed);
        let reply = if Instant::now() >= deadline {
            Err(fault(ErrorCode::Timeout, "expired while queued"))
        } else {
            // A panic is answered, never propagated: it can neither
            // take the connection down nor keep its turn.
            catch_unwind(AssertUnwindSafe(execute))
                .unwrap_or_else(|_| Err(fault(ErrorCode::Internal, "execution panicked")))
        };
        if matches!(&reply, Err((ErrorCode::Timeout, _))) {
            metrics.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        let joined = {
            let mut st = self.state();
            st.finished += 1;
            key.and_then(|k| st.flights.remove(&k)).unwrap_or_default()
        };
        self.changed.notify_all();
        for tx in joined {
            let _ = tx.send(reply.clone());
        }
        reply
    }
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`Server::shutdown`] then [`Server::wait`] (or send the
/// `server.shutdown` method over the wire).
pub struct Server {
    core: Arc<ServerCore>,
    addr: SocketAddr,
    accept: thread::JoinHandle<()>,
}

impl Server {
    /// Opens the artifact store, binds the listener, and starts the
    /// accept loop, which gives each connection a thread of its own.
    ///
    /// # Errors
    ///
    /// Returns a message when the store cannot be opened or the
    /// address cannot be bound.
    pub fn start(cfg: ServeConfig) -> Result<Server, String> {
        let store = ArtifactStore::open(&cfg.cache_dir)
            .map_err(|e| format!("opening store {}: {e}", cfg.cache_dir.display()))?;
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let core = Arc::new(ServerCore::new(cfg, store, Some(addr)));

        let accept_core = Arc::clone(&core);
        let accept = thread::Builder::new()
            .name("cbsp-serve-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_core.is_draining() {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let conn_core = Arc::clone(&accept_core);
                    let _ = thread::Builder::new()
                        .name("cbsp-serve-conn".to_string())
                        .spawn(move || crate::conn::handle(conn_core, stream));
                }
                // The listener drops here; further connects are refused.
            })
            .map_err(|e| format!("spawning accept loop: {e}"))?;

        Ok(Server { core, addr, accept })
    }

    /// The bound address (useful with `addr: "127.0.0.1:0"`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain (idempotent, non-blocking): new work is
    /// refused, admitted work completes.
    pub fn shutdown(&self) {
        self.core.begin_drain();
    }

    /// Blocks until the server has drained: the accept loop has exited
    /// and every frame read has been answered, `server.shutdown`'s own
    /// included. Only returns after a drain was started.
    ///
    /// # Errors
    ///
    /// Returns a message if the accept loop panicked.
    pub fn wait(self) -> Result<(), String> {
        self.accept
            .join()
            .map_err(|_| "accept loop panicked".to_string())?;
        let mut st = self.core.state();
        while st.open_frames > 0 {
            st = self.core.changed.wait(st).expect("admission lock");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::{ArtifactStore, ServeConfig, ServerCore};
    use crate::protocol::{fault, ErrorCode};
    use serde::Value;
    use std::sync::atomic::Ordering;
    use std::sync::{mpsc, Mutex};
    use std::thread;
    use std::time::{Duration, Instant};

    /// A core with `workers` turns and no listener.
    fn core(tag: &str, workers: usize) -> ServerCore {
        let dir =
            std::env::temp_dir().join(format!("cbsp-serve-turns-{tag}-{}", std::process::id()));
        let store = ArtifactStore::open(&dir).expect("store opens");
        // These tests never touch the store, so none leaves it behind.
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        ServerCore::new(cfg, store, None)
    }

    /// Polls `check` for up to 10 s.
    #[track_caller]
    fn wait_for(check: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !check() {
            assert!(Instant::now() < give_up, "the condition never held");
            thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn admitted_requests_start_in_admission_order_one_at_a_time() {
        let core = &core("order", 1);
        let far = Instant::now() + Duration::from_secs(600);
        // Each request logs its number as it starts and as it ends.
        let log = &Mutex::new(Vec::new());
        thread::scope(|s| {
            // Made in the scope, so a failing assertion drops `release`
            // and no request waits on it forever.
            let (release, hold) = mpsc::channel::<()>();
            let mut hold = Some(hold);
            let mut requests = Vec::new();
            for i in 0..6u64 {
                // Only the first request holds its turn until released.
                let hold = hold.take();
                requests.push(s.spawn(move || {
                    core.run(None, far, || {
                        log.lock().expect("lock").push(i);
                        match hold {
                            Some(hold) => hold.recv().expect("released"),
                            None => thread::sleep(Duration::from_millis(2)),
                        }
                        log.lock().expect("lock").push(i);
                        Ok(Value::UInt(i))
                    })
                }));
                // Each request is admitted before the next one arrives;
                // the last reads (5, 1).
                wait_for(|| core.queue_depths() == (i as usize, 1));
            }
            wait_for(|| *log.lock().expect("lock") == [0]);
            release.send(()).expect("the first request waits");
            for (i, request) in requests.into_iter().enumerate() {
                let reply = request.join().expect("request thread");
                assert_eq!(reply, Ok(Value::UInt(i as u64)));
            }
        });
        // In admission order, and each ended before the next started.
        let order = [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5];
        assert_eq!(*log.lock().expect("lock"), order);
        assert_eq!(core.queue_depths(), (0, 0));
    }

    #[test]
    fn a_panic_answers_internal_to_every_waiter_and_frees_its_turn() {
        let core = &core("panic", 1);
        let far = Instant::now() + Duration::from_secs(600);
        let key = || Some("pipeline.run:k".to_string());
        let panicked = Err(fault(ErrorCode::Internal, "execution panicked"));
        thread::scope(|s| {
            let (go, wait_go) = mpsc::channel::<()>();
            let leader = s.spawn(move || {
                core.run(key(), far, move || {
                    let _ = wait_go.recv();
                    panic!("the engine failed");
                })
            });
            wait_for(|| core.queue_depths() == (0, 1));
            // Executing on its own would answer `null`, not the panic.
            let follower = s.spawn(move || core.run(key(), far, || Ok(Value::Null)));
            wait_for(|| core.metrics.singleflight_hits.load(Ordering::SeqCst) == 1);
            go.send(()).expect("the leader waits");
            assert_eq!(leader.join().expect("leader thread"), panicked);
            assert_eq!(follower.join().expect("follower thread"), panicked);
        });
        // The turn and the key were released: the same key runs again.
        assert_eq!(core.run(key(), far, || Ok(Value::Null)), Ok(Value::Null));
        assert_eq!(core.queue_depths(), (0, 0));
    }
}
