//! The daemon: TCP listener, admission queue, worker pool, drain.
//!
//! ## Request life cycle
//!
//! ```text
//! accept ─► connection thread ─► parse ─► prepare (compile + keys)
//!                                           │
//!                         single-flight? ───┤ join in-flight twin
//!                         queue full? ──────┤ `overloaded`
//!                                           ▼
//!                              bounded queue ─► worker
//!                                           batch compatible pipeline.run
//!                                           execute (deadline at stage
//!                                           boundaries) ─► deliver to all
//!                                           waiters ─► response frame
//! ```
//!
//! Admission happens on the connection thread: the request is resolved
//! to content digests first, so an identical in-flight request (same
//! digests) is joined instead of queued — one execution serves every
//! waiter. The queue bounds *admitted* work; when `queue + executing`
//! reaches `max_inflight`, new work is rejected with `overloaded`
//! rather than building unbounded latency.
//!
//! ## Drain
//!
//! The `server.shutdown` method (or [`Server::shutdown`]) flips the
//! draining flag: new connections and new requests are refused, queued
//! and executing requests run to completion, then [`Server::wait`]
//! returns. There is no signal handler — this crate forbids unsafe
//! code, so SIGTERM cannot be trapped; process supervisors should send
//! `server.shutdown` and wait for the port to close.

use crate::engine::{Engine, Reply, Work};
use crate::metrics::ServeMetrics;
use crate::protocol::{fault, ErrorCode, Fault};
use cbsp_par::Pool;
use cbsp_store::ArtifactStore;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:4650` (`:0` picks a free port).
    pub addr: String,
    /// Thread budget per execution slot (0 = one per core). Results
    /// are bit-identical at every setting.
    pub threads: usize,
    /// Admission bound: queued + executing requests beyond this are
    /// rejected with `overloaded`.
    pub max_inflight: usize,
    /// Artifact-store directory (created if absent).
    pub cache_dir: PathBuf,
    /// Deadline for requests that don't send `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Most `pipeline.run` requests one worker executes as one batch.
    pub batch_max: usize,
    /// Dispatcher threads draining the queue. Two keeps cheap queries
    /// (`store.stats`) from stalling behind a long pipeline while still
    /// letting batches form.
    pub workers: usize,
    /// Shard identity when this daemon serves as one worker of a
    /// `cbsp-cluster` fleet (spawned by the router, or started
    /// standalone with `--shard-id` for adoption). Surfaced in
    /// `GET /healthz` so the router can verify it is talking to the
    /// worker it thinks it is; `None` for a standalone daemon.
    pub shard_id: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:4650".to_string(),
            threads: 0,
            max_inflight: 64,
            cache_dir: PathBuf::from(".cbsp-cache"),
            default_timeout_ms: 30_000,
            batch_max: 8,
            workers: 2,
            shard_id: None,
        }
    }
}

/// Where a finished job's reply goes.
pub(crate) enum ReplyTo {
    /// A plain queued request: one waiting connection thread.
    Direct(mpsc::Sender<Reply>),
    /// A single-flight leader: every connection registered under the
    /// key receives a clone of the reply.
    Keyed(String),
}

/// One admitted unit of work.
pub(crate) struct Job {
    pub work: Work,
    pub reply: ReplyTo,
    pub deadline: Instant,
    pub enqueued: Instant,
}

struct QueueState {
    queue: VecDeque<Job>,
    /// Jobs currently held by workers (admission counts them).
    executing: usize,
    /// Single-flight registry: key → waiting response channels. An
    /// entry exists exactly while its leader is queued or executing.
    inflight: HashMap<String, Vec<mpsc::Sender<Reply>>>,
}

/// Shared server state: engine, metrics, and the admission queue.
pub(crate) struct ServerCore {
    pub cfg: ServeConfig,
    pub engine: Engine,
    pub metrics: ServeMetrics,
    state: Mutex<QueueState>,
    job_ready: Condvar,
    drained: Condvar,
    draining: AtomicBool,
    addr: Mutex<Option<SocketAddr>>,
    /// When the server started (for `/healthz` uptime reporting).
    started: Instant,
}

impl ServerCore {
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Whole seconds since [`Server::start`] — the `/healthz` uptime
    /// field operators (and the cluster router) use to spot restarts.
    pub fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The backoff hint attached to `overloaded` rejections: scales
    /// with the queue depth at rejection time, so a client retrying
    /// after the hint finds a drained (or at least shorter) queue.
    /// Deliberately coarse — it is a hint, not a reservation.
    pub fn retry_after_ms(&self) -> u64 {
        let (queued, _executing) = self.queue_depths();
        (25 + 10 * queued as u64).min(2_000)
    }

    /// Current `(queued, executing)` — sampled for `/metrics`.
    pub fn queue_depths(&self) -> (usize, usize) {
        let st = self.state.lock().expect("queue lock");
        (st.queue.len(), st.executing)
    }

    /// Flips the server into drain mode (idempotent): refuse new work,
    /// finish what was admitted, wake the accept loop.
    pub fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.job_ready.notify_all();
        // The accept loop blocks in `accept()`; a throwaway connection
        // wakes it so it can observe the flag and exit.
        if let Some(addr) = *self.addr.lock().expect("addr lock") {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// Admits `work`. With a single-flight `key`, an identical
    /// in-flight request absorbs this one: the returned channel yields
    /// the twin's reply and nothing new is queued.
    ///
    /// # Errors
    ///
    /// `shutting_down` while draining, `overloaded` when the admission
    /// bound is reached.
    pub fn submit(
        &self,
        work: Work,
        key: Option<String>,
        deadline: Instant,
    ) -> Result<mpsc::Receiver<Reply>, Fault> {
        if self.is_draining() {
            return Err(fault(ErrorCode::ShuttingDown, "server is draining"));
        }
        let (tx, rx) = mpsc::channel();
        let mut st = self.state.lock().expect("queue lock");
        if let Some(k) = &key {
            if let Some(waiters) = st.inflight.get_mut(k) {
                waiters.push(tx);
                self.metrics
                    .singleflight_hits
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(rx);
            }
        }
        if st.queue.len() + st.executing >= self.cfg.max_inflight {
            self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(fault(
                ErrorCode::Overloaded,
                format!(
                    "admission queue full ({} in flight); retry later",
                    self.cfg.max_inflight
                ),
            ));
        }
        let reply = match key {
            Some(k) => {
                st.inflight.insert(k.clone(), vec![tx]);
                ReplyTo::Keyed(k)
            }
            None => ReplyTo::Direct(tx),
        };
        let now = Instant::now();
        st.queue.push_back(Job {
            work,
            reply,
            deadline,
            enqueued: now,
        });
        drop(st);
        self.job_ready.notify_one();
        Ok(rx)
    }

    /// Sends `reply` to everyone waiting on `job` and releases its
    /// single-flight entry.
    fn deliver(&self, job: Job, reply: Reply) {
        if matches!(&reply, Err((ErrorCode::Timeout, _))) {
            self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        match job.reply {
            ReplyTo::Direct(tx) => {
                let _ = tx.send(reply);
            }
            ReplyTo::Keyed(key) => {
                let waiters = self
                    .state
                    .lock()
                    .expect("queue lock")
                    .inflight
                    .remove(&key)
                    .unwrap_or_default();
                for tx in waiters {
                    let _ = tx.send(reply.clone());
                }
            }
        }
    }

    /// Marks `n` jobs finished and signals drain completion when the
    /// server goes idle.
    fn finish(&self, n: usize) {
        let mut st = self.state.lock().expect("queue lock");
        st.executing -= n;
        if st.executing == 0 && st.queue.is_empty() {
            self.drained.notify_all();
        }
    }

    /// One dispatcher: pop, micro-batch, execute, deliver — until the
    /// queue is empty *and* the server is draining.
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let batch = {
                let mut st = self.state.lock().expect("queue lock");
                let first = loop {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                    if self.is_draining() {
                        return;
                    }
                    st = self.job_ready.wait(st).expect("queue lock");
                };
                let mut batch = vec![first];
                let lead_shape = match &batch[0].work {
                    Work::Pipeline(s) => Some((s.scale_name, s.config.interval_target)),
                    _ => None,
                };
                if let Some(shape) = lead_shape {
                    // Pull compatible pipeline.run jobs (same scale and
                    // interval) into this execution — one pool fan-out
                    // instead of N sequential runs.
                    let mut i = 0;
                    while i < st.queue.len() && batch.len() < self.cfg.batch_max.max(1) {
                        let take = matches!(
                            &st.queue[i].work,
                            Work::Pipeline(s)
                                if (s.scale_name, s.config.interval_target) == shape
                        );
                        if take {
                            let job = st.queue.remove(i).expect("index in range");
                            batch.push(job);
                        } else {
                            i += 1;
                        }
                    }
                }
                st.executing += batch.len();
                batch
            };
            let n = batch.len();
            self.execute_batch(batch);
            self.finish(n);
        }
    }

    /// Executes one popped batch: times out stale jobs, fans the rest
    /// out on the pool, converts panics into `internal` replies so a
    /// poisoned request can never take a worker down.
    fn execute_batch(&self, batch: Vec<Job>) {
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        for job in batch {
            self.metrics.queue_wait_us.fetch_add(
                now.duration_since(job.enqueued).as_micros() as u64,
                Ordering::Relaxed,
            );
            if now >= job.deadline {
                self.deliver(job, Err(fault(ErrorCode::Timeout, "expired while queued")));
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            return;
        }
        if matches!(live[0].work, Work::Pipeline(_)) {
            self.metrics.count_batch(live.len() as u64);
        }
        let replies: Vec<Reply> = catch_unwind(AssertUnwindSafe(|| self.run_jobs(&live)))
            .unwrap_or_else(|_| {
                vec![Err(fault(ErrorCode::Internal, "execution panicked")); live.len()]
            });
        for (job, reply) in live.into_iter().zip(replies) {
            self.deliver(job, reply);
        }
    }

    /// Computes a reply per job. A multi-job batch is always
    /// `pipeline.run`; each item gets an equal share of the thread
    /// budget, and each keeps its own deadline.
    fn run_jobs(&self, jobs: &[Job]) -> Vec<Reply> {
        if jobs.len() > 1 {
            let pool = Pool::new(self.engine.threads);
            let share = pool.split(jobs.len()).threads();
            return pool.run_indexed(jobs.len(), |i| match &jobs[i].work {
                Work::Pipeline(spec) => self.engine.execute_pipeline(spec, share, jobs[i].deadline),
                _ => unreachable!("only pipeline.run is batched"),
            });
        }
        let job = &jobs[0];
        vec![match &job.work {
            Work::Pipeline(spec) => {
                self.engine
                    .execute_pipeline(spec, self.engine.threads, job.deadline)
            }
            Work::Estimate(spec) => self.engine.execute_estimate(spec, job.deadline),
            Work::Simpoints(spec) => self.engine.execute_simpoints(spec),
            Work::StoreStats => self.engine.execute_store_stats(),
            Work::TraceSnapshot => self.engine.execute_trace_snapshot(),
        }]
    }
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`Server::shutdown`] then [`Server::wait`] (or send the
/// `server.shutdown` method over the wire).
pub struct Server {
    core: Arc<ServerCore>,
    addr: SocketAddr,
    accept: thread::JoinHandle<()>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Opens the artifact store, binds the listener, and starts the
    /// accept loop and dispatcher threads.
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
        let threads = cfg.threads;
        let workers = cfg.workers.max(1);
        let core = Arc::new(ServerCore {
            engine: Engine::new(Arc::new(store), threads),
            metrics: ServeMetrics::default(),
            cfg,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                executing: 0,
                inflight: HashMap::new(),
            }),
            job_ready: Condvar::new(),
            drained: Condvar::new(),
            draining: AtomicBool::new(false),
            addr: Mutex::new(Some(addr)),
            started: Instant::now(),
        });

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let core = Arc::clone(&core);
            let handle = thread::Builder::new()
                .name(format!("cbsp-serve-worker-{i}"))
                .spawn(move || core.worker_loop())
                .map_err(|e| format!("spawning worker: {e}"))?;
            worker_handles.push(handle);
        }

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

        Ok(Server {
            core,
            addr,
            accept,
            workers: worker_handles,
        })
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

    /// Blocks until the server has drained: the accept loop has
    /// exited, the queue is empty, and no request is executing. Only
    /// returns after a drain was started.
    ///
    /// # Errors
    ///
    /// Returns a message if a server thread panicked.
    pub fn wait(self) -> Result<(), String> {
        self.accept
            .join()
            .map_err(|_| "accept loop panicked".to_string())?;
        {
            let mut st = self.core.state.lock().expect("queue lock");
            while !(st.queue.is_empty() && st.executing == 0) {
                st = self.core.drained.wait(st).expect("queue lock");
            }
        }
        self.core.job_ready.notify_all();
        for w in self.workers {
            w.join().map_err(|_| "worker panicked".to_string())?;
        }
        Ok(())
    }
}
